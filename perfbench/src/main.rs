//! Closed-loop slot benchmark of the participatory-sensing engine.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           [--slots <n>] [--trace-out <file>]
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics of one workload;
//! with `--trace 1` it runs the same seed twice, untraced and traced,
//! checks that both produce the same welfare fingerprint, and reports the
//! per-layer metrics plus the tracing overhead. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! See `README.md` next to this package for the metrics and workloads.

mod host;
mod replay;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{per_slot_ms, self_ms, Tracer};
use workloads::{SlotLoop, SlotResult, Workload, WARMUP_SLOTS};

/// Measured slots per episode: enough for `slot_ms_p90` to leave ten
/// samples above it. The fingerprint and the quality metrics cover one
/// episode, so they repeat whatever `--seconds` is.
const EPISODE_SLOTS: usize = 100;
/// Engine builds (each with its warm-up slots) per run; `setup_s` is
/// their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    slots: usize,
    trace_out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut slots = EPISODE_SLOTS;
    let mut trace_out = None;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--slots" => {
                slots = value()?.parse().map_err(|e| format!("--slots: {e}"))?;
                if slots == 0 {
                    return Err("--slots must be positive".into());
                }
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload.ok_or(format!("--workload is required ({})", names.join(", ")))?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        slots,
        trace_out,
    })
}

/// One pass over a workload: set-ups, then episodes of `args.slots`
/// measured slots on the same seed, repeated until `seconds` have passed.
struct Pass {
    /// Median over every set-up of the pass.
    setup_s: f64,
    /// The first episode: the fingerprint and the quality metrics.
    episode: Vec<SlotResult>,
    /// Every measured slot of every episode: the timing metrics.
    slots: Vec<SlotResult>,
    /// The last episode's engine.
    slot_loop: SlotLoop,
    tracer: Option<Arc<Tracer>>,
    /// Per-shard point-query totals when the last episode began.
    shard_start: Vec<usize>,
    /// Minor page faults the process took during the last episode.
    page_faults: u64,
    /// Failed warm-up checks, and episodes whose fingerprint differs
    /// from the first.
    failures: Vec<String>,
}

impl Pass {
    /// Builds the engine and steps its warm-up slots, timing both.
    fn setup(
        args: &Args,
        tracer: Option<Arc<Tracer>>,
        setups: &mut Vec<f64>,
        failures: &mut Vec<String>,
    ) -> SlotLoop {
        let (mut slot_loop, mut setup_s) = SlotLoop::build(args.workload, args.seed, tracer);
        for _ in 0..WARMUP_SLOTS {
            let r = slot_loop.step();
            setup_s += r.ms / 1e3;
            failures.extend(r.failure);
        }
        setups.push(setup_s);
        slot_loop
    }

    /// Sets up [`SETUPS`] − 1 throwaway engines, then runs episodes, each
    /// on a freshly set-up engine, until `seconds` of wall time have
    /// passed (at least one). Every episode replays the same seed, so
    /// they must all produce the first one's fingerprint.
    fn run(args: &Args, tracer: Option<Arc<Tracer>>, seconds: f64) -> Self {
        let mut setups = Vec::new();
        let mut failures = Vec::new();
        for _ in 1..SETUPS {
            Self::setup(args, tracer.clone(), &mut setups, &mut failures);
        }
        let start = Instant::now();
        let mut episode: Vec<SlotResult> = Vec::new();
        let mut slots = Vec::new();
        loop {
            let mut slot_loop = Self::setup(args, tracer.clone(), &mut setups, &mut failures);
            // Spans and layer counters cover the measured slots only.
            if let Some(tr) = &tracer {
                tr.clear();
            }
            slot_loop.reset_probes();
            let shard_start = slot_loop.shard_point_totals();
            let faults_before = host::minor_faults().unwrap_or(0);
            let run: Vec<SlotResult> = (0..args.slots).map(|_| slot_loop.step()).collect();
            let page_faults = host::minor_faults().unwrap_or(0) - faults_before;
            if episode.is_empty() {
                episode = run.clone();
            } else if fingerprint(&run) != fingerprint(&episode) {
                failures.push(format!(
                    "episode {} of seed {} differs from the first",
                    slots.len() / args.slots,
                    args.seed
                ));
            }
            slots.extend(run);
            if start.elapsed().as_secs_f64() >= seconds {
                return Pass {
                    setup_s: median(&mut setups),
                    episode,
                    slots,
                    slot_loop,
                    tracer,
                    shard_start,
                    page_faults,
                    failures,
                };
            }
        }
    }

    fn spans(&self) -> Vec<trace::Span> {
        self.tracer.as_ref().map_or_else(Vec::new, |tr| tr.spans())
    }

    /// Point queries each shard took during the last episode.
    fn shard_point_deltas(&self) -> Vec<usize> {
        self.slot_loop
            .shard_point_totals()
            .iter()
            .zip(&self.shard_start)
            .map(|(now, start)| now - start)
            .collect()
    }
}

fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Nearest-rank percentile.
fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * xs.len() as f64).ceil().max(1.0) as usize;
    xs[rank - 1]
}

/// FNV-1a over the bits of each slot's welfare and satisfied count.
fn fingerprint(slots: &[SlotResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in slots {
        for b in s
            .welfare
            .to_bits()
            .to_le_bytes()
            .into_iter()
            .chain((s.point_satisfied as u64).to_le_bytes())
        {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// `(name, value, unit)` in output order.
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// Attempted and failed queries over all measured slots: a query fails
/// when admission rejects it or its slot fails a check.
fn attempted_failed(slots: &[SlotResult]) -> (usize, usize) {
    let attempted = slots.iter().map(|s| s.queries).sum();
    let failed = slots
        .iter()
        .map(|s| {
            if s.failure.is_some() {
                s.queries
            } else {
                s.rejected
            }
        })
        .sum();
    (attempted, failed)
}

fn end_to_end(pass: &Pass) -> Metrics {
    let mut ms: Vec<f64> = pass.slots.iter().map(|s| s.ms).collect();
    let total_s: f64 = ms.iter().sum::<f64>() / 1e3;
    let (attempted, failed) = attempted_failed(&pass.slots);
    let fixed = &pass.episode;
    let points: usize = fixed.iter().map(|s| s.point_total).sum();
    let satisfied: usize = fixed.iter().map(|s| s.point_satisfied).sum();
    vec![
        ("slot_ms_p50", percentile(&mut ms, 50.0), "ms"),
        ("slot_ms_p90", percentile(&mut ms, 90.0), "ms"),
        ("queries_per_s", attempted as f64 / total_s, "queries/s"),
        (
            "welfare_per_slot",
            fixed.iter().map(|s| s.welfare).sum::<f64>() / fixed.len() as f64,
            "utility",
        ),
        ("point_satisfaction", ratio(satisfied, points), "fraction"),
        ("served_share", 1.0 - ratio(failed, attempted), "fraction"),
        ("setup_s", pass.setup_s, "s"),
        (
            "peak_rss_mb",
            host::peak_rss_mib().unwrap_or(f64::NAN),
            "MiB",
        ),
    ]
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median over slots of the per-slot sum of `name` spans; slots without
/// such a span count as 0.
fn median_per_slot(per_slot: &BTreeMap<usize, f64>, slots: usize) -> f64 {
    if per_slot.is_empty() {
        return 0.0;
    }
    let mut v: Vec<f64> = per_slot.values().copied().collect();
    v.resize(v.len().max(slots), 0.0);
    median(&mut v)
}

fn per_layer(traced: &Pass, untraced: &Pass, replay: &replay::Replay) -> Metrics {
    use workloads::*;
    let spans = traced.spans();
    let n = traced.slots.len();
    let med = |name: &str| median_per_slot(&per_slot_ms(&spans, name), n);
    let certified = per_slot_ms(&spans, SOLVER_CERTIFIED);
    let schedule = per_slot_ms(&spans, SOLVER_SCHEDULE);
    let lp_only: BTreeMap<usize, f64> = certified
        .iter()
        .map(|(slot, ms)| (*slot, ms - schedule.get(slot).copied().unwrap_or(0.0)))
        .collect();
    let mut step_self = self_ms(&spans, ENGINE_STEP);
    let l = &traced.slot_loop.layers;
    let solver = traced.slot_loop.solver_counts();
    let stream = l.stream.clone().unwrap_or_default();
    let shard_deltas = traced.shard_point_deltas();
    let skew = if shard_deltas.is_empty() {
        0.0
    } else {
        let max = *shard_deltas.iter().max().expect("non-empty") as f64;
        let mean = shard_deltas.iter().sum::<usize>() as f64 / shard_deltas.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            0.0
        }
    };
    let lp_gap = if l.lp_bound > 0.0 {
        ((l.lp_bound - l.sched_welfare) / l.lp_bound).max(0.0)
    } else {
        0.0
    };
    let mut traced_ms: Vec<f64> = traced.slots.iter().map(|s| s.ms).collect();
    let mut untraced_ms: Vec<f64> = untraced.episode.iter().map(|s| s.ms).collect();
    let traced_p50 = median(&mut traced_ms);
    let mut m: Metrics = vec![
        ("engine.step_ms", med(ENGINE_STEP), "ms"),
        ("engine.self_ms", median(&mut step_self), "ms"),
        ("engine.sensors_used", l.sensors_used as f64, "count"),
        (
            "engine.point_yield",
            ratio(
                traced.slots.iter().map(|s| s.point_satisfied).sum(),
                traced.slots.iter().map(|s| s.point_total).sum(),
            ),
            "fraction",
        ),
        ("solver.calls", solver.calls as f64, "count"),
        ("solver.queries", solver.queries as f64, "count"),
        ("solver.schedule_ms", median_per_slot(&schedule, n), "ms"),
        ("solver.lp_bound_ms", median_per_slot(&lp_only, n), "ms"),
        ("solver.lp_gap", lp_gap, "fraction"),
    ];
    m.extend(replay.metrics());
    m.extend([
        ("geo.index_build_ms", med(GEO_INDEX_BUILD), "ms"),
        ("monitor.region_plan_ms", med(MONITOR_REGION_PLAN), "ms"),
        (
            "monitor.region_plan_points",
            l.region_plan_points as f64,
            "count",
        ),
        ("monitor.region_active", l.region_active as f64, "count"),
        ("monitor.location_active", l.location_active as f64, "count"),
        ("intake.submit_ms", med(INTAKE_SUBMIT), "ms"),
        ("intake.admit_ms", med(INTAKE_ADMIT), "ms"),
        ("intake.admitted", l.intake_admitted as f64, "count"),
        ("intake.deferred", l.intake_deferred as f64, "count"),
        ("intake.rejected", l.intake_rejected as f64, "count"),
        ("intake.backlog", l.intake_backlog_max as f64, "count"),
        ("stream.events", l.stream_events as f64, "count"),
        (
            "stream.sensor_arrivals",
            stream.sensor_arrivals as f64,
            "count",
        ),
        (
            "stream.matched_at_arrival_share",
            ratio(stream.matched_at_arrival, l.stream_points),
            "fraction",
        ),
        (
            "stream.decision_ticks_p50",
            stream.p50().unwrap_or(0) as f64,
            "ticks",
        ),
        (
            "stream.decision_ticks_p99",
            stream.p99().unwrap_or(0) as f64,
            "ticks",
        ),
        ("cluster.halo_duplicates", l.halo_duplicates as f64, "count"),
        ("cluster.cost_restored", l.cost_restored, "cost"),
        ("cluster.shard_point_skew", skew, "ratio"),
        ("mem.page_faults", untraced.page_faults as f64, "count"),
        ("trace.slot_ms_p50", traced_p50, "ms"),
        (
            "trace.overhead_ms",
            traced_p50 - median(&mut untraced_ms),
            "ms",
        ),
    ]);
    m
}

fn json_result(correct: bool, attempted: usize, failed: usize, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Before anything large is allocated.
    let pinned = host::pin_malloc_thresholds();
    let w = args.workload;
    let threads = host::nproc();
    let parallelism = host::effective_parallelism(threads, 40.0);
    println!(
        "host: nproc={threads} effective_parallelism={parallelism:.2} (spin probe, {threads} threads vs 1) malloc_thresholds_pinned={pinned}"
    );

    let untraced = Pass::run(&args, None, if args.trace { 0.0 } else { args.seconds });
    let profile = untraced.slot_loop.profile();
    let burst_slots = (WARMUP_SLOTS..WARMUP_SLOTS + args.slots)
        .filter(|&t| profile.point_arrivals(t) != profile.points_per_slot)
        .count();
    let print_sizes = |pass: &Pass, label: &str| {
        let fixed = &pass.episode;
        println!(
            "{} {label}: fingerprint={:016x} over {} slots; sensors={} queries/slot={:.1} burst_slots={burst_slots}",
            w.name(),
            fingerprint(fixed),
            fixed.len(),
            profile.sensors,
            fixed.iter().map(|s| s.queries).sum::<usize>() as f64 / fixed.len() as f64,
        );
    };
    print_sizes(&untraced, "untraced");
    let mut failures: Vec<String> = untraced.failures.clone();
    failures.extend(untraced.slots.iter().filter_map(|s| s.failure.clone()));

    let (metrics, attempted, failed) = if args.trace {
        let tracer = Tracer::new();
        let traced = Pass::run(&args, Some(tracer.clone()), 0.0);
        print_sizes(&traced, "traced");
        failures.extend(traced.failures.iter().cloned());
        failures.extend(traced.slots.iter().filter_map(|s| s.failure.clone()));
        if fingerprint(&traced.episode) != fingerprint(&untraced.episode) {
            failures.push("traced and untraced fingerprints differ".into());
        }
        let replay = replay::Replay::run(&traced.slot_loop, &tracer);
        failures.extend(replay.failures.iter().cloned());
        let path = args.trace_out.clone().unwrap_or_else(|| {
            PathBuf::from(format!(".bench_trace/{}-seed{}.jsonl", w.name(), args.seed))
        });
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"nproc\":{threads},\"effective_parallelism\":{parallelism:.3}}}",
            w.name(),
            args.seed
        );
        match tracer.write_jsonl(&path, &header) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => failures.push(format!("writing {}: {e}", path.display())),
        }
        let (attempted, failed) = attempted_failed(&traced.slots);
        (per_layer(&traced, &untraced, &replay), attempted, failed)
    } else {
        let (attempted, failed) = attempted_failed(&untraced.slots);
        let m = end_to_end(&untraced);
        let beyond = untraced.slots.len() - (untraced.slots.len() as f64 * 0.9).ceil() as usize;
        println!(
            "{}: {} measured slots ({beyond} above p90), seconds={}",
            w.name(),
            untraced.slots.len(),
            args.seconds
        );
        (m, attempted, failed)
    };
    for (name, value, unit) in &metrics {
        println!("{:<36} {value:>16.6} {unit}", name);
    }
    for f in failures.iter().take(10) {
        println!("check failed: {f}");
    }
    println!(
        "{}",
        json_result(failures.is_empty(), attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
