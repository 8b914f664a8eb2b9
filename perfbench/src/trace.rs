//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a
//! layer: its name (`layer.what`), wall start and end, CPU burned, the
//! span that caused it, and a run id (the pass number, or the request
//! index for per-request spans). Spans stay in memory and are written
//! out once, when the run ends.
//!
//! CPU is read from one of three clocks. A pass root reads the process
//! clock, so it covers every thread of the program. A call made on the
//! benchmark's own thread reads that thread's clock. Work done on
//! another thread (a shard worker, a client driver) is recorded with
//! the CPU that thread reported. A span's self CPU is its CPU minus the
//! CPU of its children on the same thread. A root's self CPU is what no
//! descendant accounts for: the unattributed rest.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use nettrace::ingest::IngestReport;
use nettrace::source::{PumpOutcome, SourceStats, TrafficSource};
use nettrace::HttpTransaction;

use crate::sys;

/// Where a span's CPU figure comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Process CPU clock: every thread of the program.
    Process,
    /// The recording thread's CPU clock.
    Thread,
    /// Reported by the thread that did the work.
    Given,
}

/// Thread id of spans recorded on the benchmark's own thread.
pub const MAIN_THREAD: u32 = 0;

/// Layer name of spans that measure the benchmark's own harness
/// (client drivers, the test origin); excluded from program totals.
pub const HARNESS: &str = "harness";

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub run: u64,
    pub parent: Option<usize>,
    pub thread: u32,
    pub clock: Clock,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cpu_ns: u64,
    cpu_start: u64,
}

impl Span {
    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span recorder. Opening and closing happen on the benchmark's
/// own thread; other threads' work is added with [`Tracer::remote`].
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
}

fn clock_ns(clock: Clock) -> u64 {
    match clock {
        Clock::Process => sys::process_cpu_ns(),
        Clock::Thread => sys::thread_cpu_ns(),
        Clock::Given => 0,
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&self, name: &'static str, run: u64, clock: Clock) -> usize {
        let parent = self.stack.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            run,
            parent,
            thread: MAIN_THREAD,
            clock,
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            cpu_ns: 0,
            cpu_start: clock_ns(clock),
        });
        self.stack.borrow_mut().push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it).
    pub fn close(&self, id: usize) {
        let end = self.ns(Instant::now());
        let mut stack = self.stack.borrow_mut();
        let mut spans = self.spans.borrow_mut();
        while let Some(top) = stack.pop() {
            let span = &mut spans[top];
            span.end_ns = end;
            span.cpu_ns = clock_ns(span.clock).saturating_sub(span.cpu_start);
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<R>(&self, name: &'static str, run: u64, clock: Clock, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, run, clock);
        let value = f();
        self.close(id);
        value
    }

    /// Records work another thread did, as a child of `parent`.
    #[allow(clippy::too_many_arguments)]
    pub fn remote(
        &self,
        parent: usize,
        name: &'static str,
        run: u64,
        thread: u32,
        start: Instant,
        end: Instant,
        cpu_ns: u64,
    ) -> usize {
        let mut spans = self.spans.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            run,
            parent: Some(parent),
            thread,
            clock: Clock::Given,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            cpu_ns,
            cpu_start: 0,
        });
        id
    }

    /// Self CPU of every span, by index.
    pub fn self_cpu(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut own = spans.iter().map(|s| s.cpu_ns).collect::<Vec<u64>>();
        for s in spans.iter() {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                if parent.clock != Clock::Process && parent.thread == s.thread {
                    own[p] = own[p].saturating_sub(s.cpu_ns);
                }
            }
        }
        // A process-clock span keeps only what no descendant explains.
        let mut explained = vec![0u64; spans.len()];
        for d in 0..spans.len() {
            let mut p = spans[d].parent;
            while let Some(a) = p {
                if spans[a].clock == Clock::Process {
                    explained[a] += own[d];
                    break;
                }
                p = spans[a].parent;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            if s.clock == Clock::Process {
                own[i] = s.cpu_ns.saturating_sub(explained[i]);
            }
        }
        own
    }

    fn descends_from(spans: &[Span], mut d: usize, root: usize) -> bool {
        while let Some(p) = spans[d].parent {
            if p == root {
                return true;
            }
            d = p;
        }
        false
    }

    /// Attribution of one pass root: self CPU per layer over the root's
    /// descendants, the program's CPU (root CPU minus harness layers),
    /// and the root's unattributed self CPU.
    pub fn waterfall(&self, root: usize) -> Waterfall {
        let own = self.self_cpu();
        let spans = self.spans.borrow();
        let mut layers: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut names: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if i == root || !Self::descends_from(&spans, i, root) {
                continue;
            }
            *layers.entry(s.layer()).or_default() += own[i];
            let n = names.entry(s.name).or_default();
            n.calls += 1;
            n.wall_ns += s.end_ns.saturating_sub(s.start_ns);
            n.self_cpu_ns += own[i];
        }
        let harness = layers.remove(HARNESS).unwrap_or(0);
        let total = spans[root].cpu_ns.saturating_sub(harness);
        Waterfall {
            wall_ns: spans[root].end_ns.saturating_sub(spans[root].start_ns),
            total_cpu_ns: total,
            unattributed_ns: own[root],
            layers,
            names,
        }
    }

    /// A copy of span `id`.
    pub fn span(&self, id: usize) -> Span {
        self.spans.borrow()[id].clone()
    }

    /// The first span named `name`.
    pub fn find(&self, name: &str) -> Option<Span> {
        self.spans.borrow().iter().find(|s| s.name == name).cloned()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_cpu();
        let spans = self.spans.borrow();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"thread\":{},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"self_cpu_ns\":{}}}",
                s.name, s.run, s.thread, s.start_ns, s.end_ns, s.cpu_ns, own[i]
            )?;
        }
        out.flush()
    }
}

/// Per-name totals under one root.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    pub calls: u64,
    pub wall_ns: u64,
    pub self_cpu_ns: u64,
}

/// Attribution of one traced pass.
#[derive(Debug, Default, Clone)]
pub struct Waterfall {
    pub wall_ns: u64,
    /// Program CPU of the pass: the root's process CPU minus harness.
    pub total_cpu_ns: u64,
    /// Root self CPU: program CPU no layer span accounts for.
    pub unattributed_ns: u64,
    /// Self CPU per layer, harness excluded.
    pub layers: BTreeMap<&'static str, u64>,
    /// Totals per span name, harness included.
    pub names: BTreeMap<&'static str, NameTotals>,
}

impl Waterfall {
    /// Self CPU of one span name, in milliseconds.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.names.get(name).map_or(0.0, |n| n.self_cpu_ns as f64 / 1e6)
    }

    /// Share of program CPU no layer accounts for.
    pub fn unattributed_frac(&self) -> f64 {
        if self.total_cpu_ns == 0 {
            return 0.0;
        }
        self.unattributed_ns as f64 / self.total_cpu_ns as f64
    }

    /// Human-readable waterfall, one line per span name.
    pub fn render(&self, title: &str) -> String {
        let mut s = format!(
            "waterfall {title}: wall {:.1} ms, program cpu {:.1} ms, unattributed {:.2}%\n",
            self.wall_ns as f64 / 1e6,
            self.total_cpu_ns as f64 / 1e6,
            100.0 * self.unattributed_frac()
        );
        let pct = |ns: u64| 100.0 * ns as f64 / self.total_cpu_ns.max(1) as f64;
        let layers: Vec<String> =
            self.layers.iter().map(|(l, ns)| format!("{l} {:.1}%", pct(*ns))).collect();
        s.push_str(&format!("  layer self cpu: {}\n", layers.join(", ")));
        for (name, n) in &self.names {
            s.push_str(&format!(
                "  {name:<28} calls {:>7}  wall {:>9.1} ms  self cpu {:>9.1} ms  {:>5.1}%\n",
                n.calls,
                n.wall_ns as f64 / 1e6,
                n.self_cpu_ns as f64 / 1e6,
                pct(n.self_cpu_ns)
            ));
        }
        s
    }
}

/// A [`TrafficSource`] wrapper that records one span per call into the
/// wrapped source. Once the source has been shut down the run loop only
/// drains the engine and runs the final verdict pass, so the wrapper
/// opens a `forensic.final_pass` span there; the caller closes it when
/// `wirefront::run` returns.
pub struct TracedSource<'a> {
    inner: &'a mut dyn TrafficSource,
    tracer: &'a Tracer,
    pump_name: &'static str,
    run: u64,
    /// The open `forensic.final_pass` span, once shutdown happened.
    pub final_pass: Option<usize>,
}

impl<'a> TracedSource<'a> {
    pub fn new(
        inner: &'a mut dyn TrafficSource,
        tracer: &'a Tracer,
        pump_name: &'static str,
        run: u64,
    ) -> Self {
        TracedSource { inner, tracer, pump_name, run, final_pass: None }
    }
}

impl TrafficSource for TracedSource<'_> {
    fn pump(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        let inner = &mut self.inner;
        self.tracer.scope(self.pump_name, self.run, Clock::Thread, || inner.pump(out))
    }

    fn shutdown(&mut self, out: &mut Vec<HttpTransaction>) {
        let inner = &mut self.inner;
        self.tracer.scope("wirefront.shutdown", self.run, Clock::Thread, || inner.shutdown(out));
        if self.final_pass.is_none() {
            self.final_pass =
                Some(self.tracer.open("forensic.final_pass", self.run, Clock::Thread));
        }
    }

    fn stats(&self) -> SourceStats {
        self.inner.stats()
    }

    fn ingest_report(&self) -> IngestReport {
        self.inner.ingest_report()
    }

    fn wait(&mut self, ms: u32) {
        let inner = &mut self.inner;
        self.tracer.scope("wirefront.wait", self.run, Clock::Thread, || inner.wait(ms));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ms: u64) {
        let t = Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < u128::from(ms) {
            x = x.wrapping_add(std::hint::black_box(1));
        }
        std::hint::black_box(x);
    }

    #[test]
    fn self_cpu_subtracts_same_thread_children_only() {
        let tracer = Tracer::new();
        let root = tracer.open("pass", 0, Clock::Process);
        let outer = tracer.open("a.outer", 0, Clock::Thread);
        spin(5);
        tracer.scope("b.inner", 0, Clock::Thread, || spin(5));
        let now = Instant::now();
        tracer.remote(outer, "c.remote", 0, 1, now, now, 3_000_000);
        tracer.close(outer);
        tracer.close(root);
        let own = tracer.self_cpu();
        let outer_span = tracer.span(outer);
        let inner_span = tracer.span(outer + 1);
        assert_eq!(own[outer], outer_span.cpu_ns - inner_span.cpu_ns);
        assert_eq!(own[outer + 2], 3_000_000);
        let w = tracer.waterfall(root);
        assert_eq!(w.layers.len(), 3);
        let sum: u64 = w.layers.values().sum();
        assert_eq!(sum + w.unattributed_ns, tracer.span(root).cpu_ns.max(sum));
    }

    #[test]
    fn harness_layers_leave_program_total() {
        let tracer = Tracer::new();
        let root = tracer.open("pass", 0, Clock::Process);
        let now = Instant::now();
        tracer.remote(root, "harness.driver", 0, 1, now, now, 1_000);
        tracer.close(root);
        let w = tracer.waterfall(root);
        assert!(!w.layers.contains_key(HARNESS));
        assert_eq!(w.names["harness.driver"].self_cpu_ns, 1_000);
    }
}
