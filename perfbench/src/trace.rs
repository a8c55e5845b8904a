//! In-memory span recorder, per-callback observer timers and the small
//! statistics helpers the metrics are computed with.
//!
//! Spans are recorded around the public calls the benchmark makes into
//! each crate; nothing here reaches inside the program. High-frequency
//! boundaries (one observer callback per router per cycle) are not kept as
//! individual spans: [`Timed`] and [`StepClock`] accumulate a busy time
//! instead.

use noc_sim::{Network, Observer};
use noc_types::record::{CycleRecord, EjectEvent};
use noc_types::{Cycle, Flit};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: its name, the job (trace) it belongs to, the span that
/// enclosed it, and its interval relative to the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub trace: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans of one thread of the benchmark, kept in memory until the run
/// ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span; spans opened before it is closed become its children.
    pub fn begin(&mut self, name: &'static str, trace: u32) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        let ix = self.spans.len() - 1;
        self.open.push(ix);
        ix
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, ix: usize) {
        let now = self.ns(Instant::now());
        self.spans[ix].end_ns = now;
        if let Some(pos) = self.open.iter().rposition(|&o| o == ix) {
            self.open.truncate(pos);
        }
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, trace: u32, f: impl FnOnce() -> R) -> R {
        let ix = self.begin(name, trace);
        let out = f();
        self.end(ix);
        out
    }

    /// Records an interval measured elsewhere (a frame arrival, a worker
    /// thread) as a span under the currently open one.
    pub fn record(&mut self, name: &'static str, trace: u32, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns,
        });
    }

    /// Moves another thread's spans into this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = |t: u64| {
            let t = other.epoch + Duration::from_nanos(t);
            t.saturating_duration_since(self.epoch).as_nanos() as u64
        };
        let moved: Vec<Span> = other
            .spans
            .iter()
            .map(|s| Span {
                parent: s.parent.map(|p| p + base),
                start_ns: shift(s.start_ns),
                end_ns: shift(s.end_ns),
                ..s.clone()
            })
            .collect();
        self.spans.extend(moved);
    }

    /// Durations of every span called `name`, in seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Every span, one JSON object per line; a span's self time is its
    /// duration minus that of the spans naming it as parent.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"trace\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.trace, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// An observer wrapper that times every callback of the observer it
/// wraps. The quiescence query is forwarded untimed: it is a
/// pure check, not observation work.
#[derive(Debug, Clone)]
pub struct Timed<O> {
    pub inner: O,
    pub ns: u64,
}

impl<O> Timed<O> {
    pub fn new(inner: O) -> Timed<O> {
        Timed { inner, ns: 0 }
    }

    fn time<R>(&mut self, f: impl FnOnce(&mut O) -> R) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.ns += t.elapsed().as_nanos() as u64;
        out
    }
}

impl<O: Observer> Observer for Timed<O> {
    fn on_cycle_record(&mut self, cycle: Cycle, rec: &CycleRecord) {
        self.time(|o| o.on_cycle_record(cycle, rec));
    }
    fn on_inject(&mut self, cycle: Cycle, flit: &Flit) {
        self.time(|o| o.on_inject(cycle, flit));
    }
    fn on_eject(&mut self, ev: &EjectEvent) {
        self.time(|o| o.on_eject(ev));
    }
    fn on_quiescent_cycles(&self, cycle: Cycle, n: u64) -> bool {
        self.inner.on_quiescent_cycles(cycle, n)
    }
}

/// Times `Network::step_observed` calls and counts the cycles and router
/// cycles they advance.
#[derive(Debug, Default, Clone, Copy)]
pub struct StepClock {
    pub ns: u64,
    pub cycles: u64,
    pub router_cycles: u64,
}

impl StepClock {
    pub fn step<O: Observer>(&mut self, net: &mut Network, obs: &mut O) {
        let t = Instant::now();
        net.step_observed(obs);
        self.ns += t.elapsed().as_nanos() as u64;
        self.cycles += 1;
        self.router_cycles += net.config().mesh.len() as u64;
    }
}

/// The `q`-quantile (0..=1) of `xs`, interpolated linearly between the
/// two nearest order statistics; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Peak resident set (VmHWM) of process `pid` (`"self"` for this one), in
/// MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
