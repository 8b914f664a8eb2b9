//! The three workloads: one measured pass each, through the production
//! entry points, checked against the reference.
//!
//! * `replay_pcap` — `SpanPipeline::extract_lenient` →
//!   `streamd::order_and_downloads` → `StreamEngine` → `finish_report`.
//! * `tail_capture` — the same capture bytes from a file through
//!   `CaptureSource::pcap_file` and `wirefront::run`.
//! * `proxy_inline` — closed-loop clients over loopback sockets through
//!   `ProxySource` and `wirefront::run`, against the benchmark's origin.
//!
//! A pass runs untraced, or traced with a fresh [`Tracer`]: then every
//! call into a layer is wrapped in a span and the pass also returns its
//! per-layer figures.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bench::alloc_count::allocations;
use dynaminer::classifier::Classifier;
use dynaminer::forensic::ForensicReport;
use nettrace::ingest::IngestReport;
use nettrace::source::TrafficSource;
use nettrace::wiretap::TapConfig;
use nettrace::{HttpTransaction, SpanPipeline};
use streamd::{finish_report, order_and_downloads, StreamEngine};
use wirefront::{CaptureConfig, CaptureSource, ProxyConfig, ProxySource, RunOptions, RunSummary};

use crate::inputs::{self, detector_config, stream_config, Inputs, Reference};
use crate::loopback::{self, Origin, Script};
use crate::sys;
use crate::trace::{Clock, TracedSource, Tracer};

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReplayPcap,
    TailCapture,
    ProxyInline,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ReplayPcap, Kind::TailCapture, Kind::ProxyInline];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ReplayPcap => "replay_pcap",
            Kind::TailCapture => "tail_capture",
            Kind::ProxyInline => "proxy_inline",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// One pass's measurements.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds: first byte to merged report (pcap workloads), or
    /// first connect to last response (proxy).
    pub wall_s: f64,
    /// Transactions in the final report.
    pub transactions: u64,
    /// Bytes the path's source consumed: the capture, or the bytes
    /// the proxy relayed.
    pub source_bytes: u64,
    /// CPU of the program's threads (harness threads excluded), ns.
    pub cpu_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness failures, one line each.
    pub problems: Vec<String>,
    /// Client-observed request latencies, microseconds, sorted (proxy).
    pub latencies_us: Vec<f64>,
    /// Per-second windows of the pass: completions and their latency
    /// percentiles (proxy).
    pub windows: Vec<loopback::Window>,
    /// Per-layer figures (traced passes; counts on every pass).
    pub layers: BTreeMap<&'static str, f64>,
    /// The finished engine, kept for the traced run's probes.
    pub engine: Option<StreamEngine>,
}

impl Pass {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// A prepared workload: model, inputs, reference, and whatever the
/// path needs outside the timed region (capture file, origin).
pub struct Workload {
    kind: Kind,
    pub model: Classifier,
    /// The capture bytes.
    pub pcap: Vec<u8>,
    reference: Reference,
    reference_verdicts: Vec<String>,
    capture: Option<PathBuf>,
    /// The proxy workload's replay; the latency probe's on the others.
    script: Arc<Script>,
    origin: Origin,
}

/// Transactions the latency probe replays on the workloads that do not
/// run the proxy.
const PROBE_TRANSACTIONS: usize = 2000;

/// Opens what a pass of `kind` attaches to (the set-up's last step):
/// nothing for in-memory replay, the capture file, or the proxy's
/// listening socket.
pub fn open_source(
    kind: Kind,
    capture: Option<&std::path::Path>,
) -> Option<Box<dyn TrafficSource>> {
    match kind {
        Kind::ReplayPcap => None,
        Kind::TailCapture => Some(Box::new(
            CaptureSource::pcap_file(
                capture.expect("capture file"),
                false,
                CaptureConfig::default(),
            )
            .expect("open the capture file"),
        )),
        Kind::ProxyInline => {
            let config = proxy_config("127.0.0.1:9".parse().expect("address"));
            Some(Box::new(
                ProxySource::bind("127.0.0.1:0".parse().expect("address"), config)
                    .expect("bind the proxy"),
            ))
        }
    }
}

fn proxy_config(origin: std::net::SocketAddr) -> ProxyConfig {
    let mut config = ProxyConfig::new(origin);
    config.proxy_protocol = true;
    config.tap = TapConfig { honor_replay_ts: true, ..TapConfig::default() };
    config
}

fn run_options() -> RunOptions<'static> {
    RunOptions { poll_wait_ms: 50, scoring_threads: 1, ..RunOptions::default() }
}

/// Runs `f` in a span when tracing.
fn traced<R>(tracer: Option<&Tracer>, name: &'static str, run: u64, f: impl FnOnce() -> R) -> R {
    match tracer {
        Some(t) => t.scope(name, run, Clock::Thread, f),
        None => f(),
    }
}

fn loss_total(r: &IngestReport) -> u64 {
    r.records_dropped
        + r.packets_dropped_decode
        + r.reassembly_gaps
        + r.streams_discarded
        + r.gzip_failures
        + r.deflate_failures
        + r.chunked_failures
        + r.decode_cap_exceeded
        + u64::from(r.capture_truncated)
}

impl Workload {
    /// Prepares `kind` with a trained model: computes the reference
    /// and starts the origin. `capture` is the capture file the
    /// tail workload reads, already written.
    pub fn prepare(
        kind: Kind,
        model: Classifier,
        inputs: Inputs,
        capture: Option<PathBuf>,
    ) -> Workload {
        let Inputs { transactions, pcap, .. } = inputs;
        let reference = Reference::compute(&pcap, &model, kind != Kind::ReplayPcap);
        let reference_verdicts = inputs::verdict_keys(&reference.report);
        let replayed = match kind {
            Kind::ProxyInline => &transactions[..],
            _ => &transactions[..PROBE_TRANSACTIONS.min(transactions.len())],
        };
        let script = Arc::new(Script::new(replayed, inputs::SHARDS));
        let origin = Origin::start(script.responses.clone(), inputs::SHARDS).expect("start origin");
        Workload { kind, model, pcap, reference, reference_verdicts, capture, script, origin }
    }

    /// Transactions one pass must offer the engine.
    pub fn expected(&self) -> u64 {
        self.reference.extracted
    }

    /// Transactions the final report must count (trusted-vendor
    /// traffic is weeded out before counting).
    fn expected_in_report(&self) -> u64 {
        self.reference.report.transactions as u64
    }

    /// Runs one pass, traced when `tracer` is given.
    pub fn pass(&self, run: u64, tracer: Option<&Tracer>) -> Pass {
        match self.kind {
            Kind::ReplayPcap => self.replay_pass(run, tracer),
            Kind::TailCapture => self.tail_pass(run, tracer),
            Kind::ProxyInline => self.proxy_pass(run, tracer),
        }
    }

    fn engine(&self) -> StreamEngine {
        StreamEngine::new(self.model.clone(), detector_config(), stream_config())
    }

    fn replay_pass(&self, run: u64, tracer: Option<&Tracer>) -> Pass {
        let mut engine = self.engine();
        let pcap = &self.pcap;
        let mut ingest = IngestReport::new();
        let mut allocs = [0u64; 5];
        let ingest_wall;
        let (report, feed, wall, cpu) = {
            let cpu0 = sys::process_cpu_ns();
            let started = Instant::now();
            let root = tracer.map(|t| t.open("pass", run, Clock::Process));
            allocs[0] = allocations();
            let txs = traced(tracer, "nettrace.ingest", run, || {
                SpanPipeline::new().extract_lenient(pcap, &mut ingest)
            });
            allocs[1] = allocations();
            ingest_wall = sys::secs_since(started);
            let (order, downloads) =
                traced(tracer, "streamd.order", run, || order_and_downloads(&txs));
            let feed_started = Instant::now();
            let feed_span = tracer.map(|t| t.open("streamd.feed", run, Clock::Thread));
            allocs[2] = allocations();
            let feed = engine.process(order.into_iter().cloned());
            allocs[3] = allocations();
            if let (Some(t), Some(span)) = (tracer, feed_span) {
                let now = Instant::now();
                for (i, &cpu) in feed.per_shard_cpu_ns.iter().enumerate() {
                    t.remote(span, "streamd.shard", run, 1 + i as u32, feed_started, now, cpu);
                }
                t.close(span);
            }
            let report = traced(tracer, "forensic.final_pass", run, || {
                finish_report(&mut engine, downloads, 1, None)
            });
            allocs[4] = allocations();
            if let (Some(t), Some(root)) = (tracer, root) {
                t.close(root);
            }
            (report, feed, sys::secs_since(started), sys::process_cpu_ns() - cpu0)
        };

        let mut pass = Pass {
            wall_s: wall,
            transactions: report.transactions as u64,
            source_bytes: pcap.len() as u64,
            cpu_ns: cpu,
            attempted: self.expected(),
            ..Pass::default()
        };
        pass.failed =
            self.expected_in_report().saturating_sub(report.transactions as u64) + feed.dropped;
        pass.check(inputs::report_key(&report) == self.reference.report_key, || {
            "replay report differs from the strict single-threaded reference".into()
        });
        self.check_engine(&mut pass, feed.enqueued, feed.processed, feed.dropped);
        let l = &mut pass.layers;
        l.insert("nettrace.packets", ingest.packets_read as f64);
        l.insert("nettrace.loss_total", loss_total(&ingest) as f64);
        l.insert("nettrace.ingest_MB_per_s", pcap.len() as f64 / 1e6 / ingest_wall);
        l.insert(
            "wirefront.allocs_per_tx",
            (allocs[4] - allocs[0]) as f64 / report.transactions.max(1) as f64,
        );
        l.insert(
            "nettrace.allocs_per_packet",
            (allocs[1] - allocs[0]) as f64 / ingest.packets_read.max(1) as f64,
        );
        l.insert(
            "streamd.allocs_per_tx",
            (allocs[3] - allocs[2]) as f64 / report.transactions.max(1) as f64,
        );
        l.insert("streamd.backpressure_waits", feed.backpressure_waits as f64);
        l.insert("streamd.dropped", feed.dropped as f64);
        pass.engine = Some(engine);
        pass
    }

    fn check_engine(&self, pass: &mut Pass, enqueued: u64, processed: u64, dropped: u64) {
        pass.check(enqueued == processed + dropped && dropped == 0, || {
            format!(
                "engine accounting: enqueued {enqueued}, processed {processed}, dropped {dropped}"
            )
        });
        pass.check(enqueued == self.expected(), || {
            format!("engine saw {enqueued} transactions, reference has {}", self.expected())
        });
    }

    /// Runs `wirefront::run` over `source`, traced or not. Returns the
    /// summary and allocations made during the call.
    fn wire_run(
        &self,
        source: &mut dyn TrafficSource,
        engine: &mut StreamEngine,
        stop: &AtomicBool,
        run: u64,
        tracer: Option<&Tracer>,
        pump_name: &'static str,
    ) -> (RunSummary, u64) {
        let before = allocations();
        let summary = match tracer {
            None => wirefront::run(source, engine, stop, run_options()),
            Some(t) => {
                let started = Instant::now();
                let span = t.open("wirefront.run", run, Clock::Thread);
                let mut traced = TracedSource::new(source, t, pump_name, run);
                let summary = wirefront::run(&mut traced, engine, stop, run_options());
                if let Some(final_pass) = traced.final_pass {
                    t.close(final_pass);
                }
                let shard_cpu = engine
                    .telemetry()
                    .snapshot()
                    .histograms
                    .get("streamd_shard_cpu_ns")
                    .map_or(0, |h| h.sum);
                t.remote(span, "streamd.shard", run, 1, started, Instant::now(), shard_cpu);
                t.close(span);
                summary
            }
        }
        .expect("wirefront run");
        (summary, allocations() - before)
    }

    /// Checks and counters shared by the two wire workloads.
    fn wire_checks(
        &self,
        pass: &mut Pass,
        summary: &RunSummary,
        engine: &StreamEngine,
        allocs: u64,
    ) {
        self.check_engine(pass, summary.enqueued, summary.processed, summary.dropped);
        let report = &summary.report;
        pass.check(report.transactions as u64 == self.expected_in_report(), || {
            format!(
                "report holds {} transactions, reference {}",
                report.transactions,
                self.expected_in_report()
            )
        });
        pass.check(inputs::ledger_key(&report.downloads) == self.reference.ledger_key, || {
            "download ledger differs from the reference".into()
        });
        let losses = inputs::engine_losses(engine);
        pass.check(losses == 0, || format!("engine trackers dropped {losses} transactions"));
        let mut delivered = inputs::engine_transactions(engine);
        let mismatched = inputs::transaction_mismatches(&self.reference.tracked, &mut delivered);
        pass.check(mismatched == 0, || {
            format!("{mismatched} delivered transactions differ from the offline extraction")
        });
        pass.failed =
            self.expected_in_report().saturating_sub(report.transactions as u64) + summary.dropped;
        let differing =
            inputs::missing_from(&self.reference_verdicts, &inputs::verdict_keys(report));
        let s = summary.stats;
        let l = &mut pass.layers;
        l.insert(
            "wirefront.feed_order_inversions",
            inputs::feed_order_inversions(&mut delivered) as f64,
        );
        l.insert("detector.verdicts_differing_from_replay", differing as f64);
        l.insert("wirefront.connections", s.connections as f64);
        l.insert("wirefront.tap_overflows", s.tap_overflows as f64);
        l.insert("wirefront.source_drops", s.source_drops as f64);
        l.insert("wirefront.allocs_per_tx", allocs as f64 / report.transactions.max(1) as f64);
        l.insert("nettrace.packets", summary.ingest.packets_read as f64);
        l.insert("nettrace.loss_total", loss_total(&summary.ingest) as f64);
        l.insert("streamd.backpressure_waits", summary.backpressure_waits as f64);
        l.insert("streamd.dropped", summary.dropped as f64);
    }

    fn tail_pass(&self, run: u64, tracer: Option<&Tracer>) -> Pass {
        let path = self.capture.as_ref().expect("capture file");
        let mut source = CaptureSource::pcap_file(path, false, CaptureConfig::default())
            .expect("open the capture file");
        let mut engine = self.engine();
        let stop = AtomicBool::new(false);
        let (summary, allocs, wall, cpu) = {
            let cpu0 = sys::process_cpu_ns();
            let started = Instant::now();
            let root = tracer.map(|t| t.open("pass", run, Clock::Process));
            let (summary, allocs) = self.wire_run(
                &mut source,
                &mut engine,
                &stop,
                run,
                tracer,
                "wirefront.capture_pump",
            );
            if let (Some(t), Some(root)) = (tracer, root) {
                t.close(root);
            }
            (summary, allocs, sys::secs_since(started), sys::process_cpu_ns() - cpu0)
        };
        let mut pass = Pass {
            wall_s: wall,
            transactions: summary.report.transactions as u64,
            source_bytes: self.pcap.len() as u64,
            cpu_ns: cpu,
            attempted: self.expected(),
            ..Pass::default()
        };
        self.wire_checks(&mut pass, &summary, &engine, allocs);
        pass.engine = Some(engine);
        pass
    }

    fn proxy_pass(&self, run: u64, tracer: Option<&Tracer>) -> Pass {
        let (origin, script) = (&self.origin, &self.script);
        let mut source =
            ProxySource::bind("127.0.0.1:0".parse().expect("address"), proxy_config(origin.addr()))
                .expect("bind the proxy");
        let addr = source.local_addr();
        let mut engine = self.engine();
        let stop = Arc::new(AtomicBool::new(false));
        let (summary, allocs, clients, cpu) = {
            let cpu0 = sys::process_cpu_ns();
            let origin_cpu0 = origin.cpu_ns();
            let started = Instant::now();
            let root = tracer.map(|t| t.open("pass", run, Clock::Process));
            let done = stop.clone();
            let driver = loopback::drive_all(addr, script, true, move || {
                done.store(true, Ordering::SeqCst);
            });
            let (summary, allocs) =
                self.wire_run(&mut source, &mut engine, &stop, run, tracer, "wirefront.proxy_pump");
            let clients = driver.join().expect("driver thread");
            let origin_cpu = origin.cpu_ns() - origin_cpu0;
            let client_cpu: u64 = clients.iter().map(|c| c.cpu_ns).sum();
            if let (Some(t), Some(root)) = (tracer, root) {
                for (c, client) in clients.iter().enumerate() {
                    let thread = 100 + c as u32;
                    let (Some(first), Some(last)) = (client.first_start, client.last_end) else {
                        continue;
                    };
                    let span =
                        t.remote(root, "harness.client", run, thread, first, last, client.cpu_ns);
                    for &(id, s, e) in &client.requests {
                        t.remote(span, "harness.request", id as u64, thread, s, e, 0);
                    }
                }
                t.remote(root, "harness.origin", run, 200, started, Instant::now(), origin_cpu);
                t.close(root);
            }
            let cpu = (sys::process_cpu_ns() - cpu0).saturating_sub(client_cpu + origin_cpu);
            (summary, allocs, clients, cpu)
        };
        let mut pass = Pass {
            wall_s: loopback::active_wall_s(&clients),
            transactions: summary.report.transactions as u64,
            source_bytes: summary.stats.bytes_in,
            cpu_ns: cpu,
            attempted: self.expected(),
            latencies_us: loopback::latencies_us(&clients),
            windows: loopback::windows(&clients),
            ..Pass::default()
        };
        let client_failures: u64 = clients.iter().map(|c| c.failed()).sum();
        let mismatches: u64 = clients.iter().map(|c| c.mismatches).sum();
        pass.check(mismatches == 0, || {
            format!("{mismatches} relayed responses differ from the origin's")
        });
        pass.check(client_failures == 0, || {
            let connect: u64 = clients.iter().map(|c| c.connect_failures).sum();
            let io: u64 = clients.iter().map(|c| c.io_failures).sum();
            format!("client failures: {connect} connect, {io} io")
        });
        self.proxy_report_checks(&mut pass, &summary);
        self.wire_checks(&mut pass, &summary, &engine, allocs);
        pass.failed += client_failures;
        pass.engine = Some(engine);
        pass
    }

    /// The proxy's report must equal the offline reference, its ledger
    /// up to order, and its alerts as a multiset.
    fn proxy_report_checks(&self, pass: &mut Pass, summary: &RunSummary) {
        let without_ledger = |r: &ForensicReport| {
            let mut r = r.clone();
            r.downloads.clear();
            inputs::report_key(&r)
        };
        pass.check(
            without_ledger(&summary.report) == without_ledger(&self.reference.report),
            || "proxy conversations differ from the offline reference".into(),
        );
        pass.check(inputs::alert_keys(&summary.alerts) == self.reference.alerts, || {
            "proxy alerts differ from the offline reference".into()
        });
    }

    /// Request latencies straight to the origin and, on the workloads
    /// that do not run the proxy, through a short proxy run over the
    /// first [`PROBE_TRANSACTIONS`] transactions (the proxy workload's
    /// own passes give its proxied figures). Microseconds, sorted.
    pub fn latency_probe(&self) -> (Vec<f64>, Vec<f64>) {
        let direct = loopback::drive_all(self.origin.addr(), &self.script, false, || {});
        let direct = loopback::latencies_us(&direct.join().expect("driver"));
        if self.kind == Kind::ProxyInline {
            return (direct, Vec::new());
        }
        let mut source = ProxySource::bind(
            "127.0.0.1:0".parse().expect("address"),
            proxy_config(self.origin.addr()),
        )
        .expect("bind the proxy");
        let mut engine = self.engine();
        let stop = Arc::new(AtomicBool::new(false));
        let done = stop.clone();
        let driver = loopback::drive_all(source.local_addr(), &self.script, true, move || {
            done.store(true, Ordering::SeqCst);
        });
        wirefront::run(&mut source, &mut engine, &stop, run_options()).expect("probe run");
        (direct, loopback::latencies_us(&driver.join().expect("driver")))
    }

    /// Stops the origin.
    pub fn finish(self) {
        self.origin.stop();
    }

    /// Transactions of a finished engine in feed order.
    pub fn delivered(engine: &StreamEngine) -> Vec<HttpTransaction> {
        let mut txs = inputs::engine_transactions(engine);
        txs.sort_by_key(|t| t.seq);
        txs
    }
}
