//! Spans recorded from outside the program: around the benchmark's own
//! calls into each layer, and inside a timing wrapper around the engine's
//! `PointScheduler` trait object. The program under test carries no
//! instrumentation of its own.
//!
//! Spans are kept in memory (name, start, end, parent, slot) and written
//! out as JSON lines when the run ends.

use ps_core::alloc::{PointAllocation, PointScheduler};
use ps_core::exec::Threads;
use ps_core::model::SensorSnapshot;
use ps_core::query::PointQuery;
use ps_core::valuation::quality::QualityModel;
use ps_geo::SensorIndex;
use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub slot: usize,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`], if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
struct State {
    slot: usize,
    spans: Vec<Span>,
    /// Stack of open span indices; the top is the parent of a new span.
    open: Vec<usize>,
}

/// In-memory span recorder shared by the slot loop and the scheduler
/// wrappers the engine calls back into.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            state: Mutex::new(State {
                slot: 0,
                spans: Vec::new(),
                open: Vec::new(),
            }),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("a traced call panicked while recording")
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the slot id stamped on spans opened from now on.
    pub fn set_slot(&self, slot: usize) {
        self.lock().slot = slot;
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut st = self.lock();
            let id = st.spans.len();
            let (slot, parent) = (st.slot, st.open.last().copied());
            st.spans.push(Span {
                name,
                slot,
                start_ns: 0,
                end_ns: 0,
                parent,
            });
            st.open.push(id);
            id
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut st = self.lock();
        st.open.pop();
        let span = &mut st.spans[id];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    /// Drops every span recorded so far.
    pub fn clear(&self) {
        let mut st = self.lock();
        assert!(st.open.is_empty(), "cleared with open spans");
        st.spans.clear();
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes `header` (one JSON object) and then every span as one
    /// JSON object per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (i, s) in self.lock().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"slot\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.slot, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Sum of span durations per slot for spans named `name`.
pub fn per_slot_ms(spans: &[Span], name: &str) -> std::collections::BTreeMap<usize, f64> {
    let mut out = std::collections::BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name) {
        *out.entry(s.slot).or_insert(0.0) += s.ms();
    }
    out
}

/// Self time of every span named `name`: its duration minus the time
/// covered by its direct children.
pub fn self_ms(spans: &[Span], name: &str) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| (s.end_ns - s.start_ns - child_ns[i]) as f64 / 1e6)
        .collect()
}

/// One Eq. 9 instance as the engine handed it to its point scheduler.
#[derive(Debug, Clone)]
pub struct Instance {
    pub queries: Vec<PointQuery>,
    pub sensors: Vec<SensorSnapshot>,
}

/// Call counts seen by a [`Timed`] wrapper.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallCounts {
    pub calls: usize,
    pub queries: usize,
}

/// A `PointScheduler` decorator that records a span around every call
/// into the wrapped scheduler, counts calls and queries, and optionally
/// keeps the first few `(queries, sensors)` instances for open-loop
/// replay. The allocation is passed through untouched.
pub struct Timed<S> {
    inner: S,
    name: &'static str,
    tracer: Arc<Tracer>,
    counts: Arc<Mutex<CallCounts>>,
    recorded: Option<(usize, Arc<Mutex<Vec<Instance>>>)>,
}

impl<S> Timed<S> {
    pub fn new(inner: S, name: &'static str, tracer: Arc<Tracer>) -> Self {
        Self {
            inner,
            name,
            tracer,
            counts: Arc::new(Mutex::new(CallCounts::default())),
            recorded: None,
        }
    }

    /// Keeps the first `limit` instances in `sink`.
    pub fn record_into(mut self, limit: usize, sink: Arc<Mutex<Vec<Instance>>>) -> Self {
        self.recorded = Some((limit, sink));
        self
    }

    /// A handle on the call counts, readable after the wrapper has moved
    /// into an engine.
    pub fn counts(&self) -> Arc<Mutex<CallCounts>> {
        self.counts.clone()
    }

    fn observe(&self, queries: &[PointQuery], sensors: &[SensorSnapshot]) {
        let mut c = self.counts.lock().expect("counter lock poisoned");
        c.calls += 1;
        c.queries += queries.len();
        if let Some((limit, sink)) = &self.recorded {
            let mut sink = sink.lock().expect("instance sink poisoned");
            if sink.len() < *limit {
                sink.push(Instance {
                    queries: queries.to_vec(),
                    sensors: sensors.to_vec(),
                });
            }
        }
    }
}

impl<S: PointScheduler> PointScheduler for Timed<S> {
    fn schedule(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
    ) -> PointAllocation {
        self.observe(queries, sensors);
        self.tracer
            .span(self.name, || self.inner.schedule(queries, sensors, quality))
    }

    fn schedule_sharded(
        &self,
        queries: &[PointQuery],
        sensors: &[SensorSnapshot],
        quality: &QualityModel,
        index: Option<&SensorIndex>,
        threads: Threads,
    ) -> PointAllocation {
        self.observe(queries, sensors);
        self.tracer.span(self.name, || {
            self.inner
                .schedule_sharded(queries, sensors, quality, index, threads)
        })
    }
}
