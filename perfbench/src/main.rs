//! `perfbench` — the end-to-end detection benchmark.
//!
//! ```text
//! perfbench --workload <replay_pcap|tail_capture|proxy_inline> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, runs the offline
//! analytics set-up several times (`setup_s` is their median), computes
//! the reference once, then runs measured passes for `--seconds`
//! seconds, checking every pass against the reference. With `--trace 0`
//! every pass is untraced and the end-to-end metrics are reported. With
//! `--trace 1` untraced and traced passes alternate, probes run once at
//! the end, and the per-layer metrics are reported. The last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `perfbench/README.md` for what each
//! workload and metric is for.

mod inputs;
mod loopback;
mod probes;
mod sys;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use streamd::StreamEngine;

use crate::inputs::{detector_config, stream_config, Inputs};
use crate::sys::{median, percentile, PeakMeter};
use crate::trace::{Tracer, Waterfall};
use crate::workloads::{open_source, Kind, Pass, Workload};

#[global_allocator]
static ALLOC: bench::alloc_count::CountingAllocator = bench::alloc_count::CountingAllocator;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Largest share of a traced pass's program CPU that may be left
/// unattributed to a layer span before the run is marked incorrect.
const UNATTRIBUTED_TOLERANCE: f64 = 0.05;

/// Where the capture file and the trace land, relative to the working
/// directory.
const WORK_DIR: &str = ".perfbench";

/// End-to-end metrics, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("tx_per_s", "1/s"),
    ("cpu_ms_per_ktx", "ms"),
    ("req_p50_us", "us"),
    ("req_p90_us", "us"),
    ("mem_peak_MB", "MB"),
];

/// Per-layer metrics, reported with `--trace 1`. A layer that is not on
/// a workload's path reports 0.
const PER_LAYER: [(&str, &str); 42] = [
    ("nettrace.ingest_cpu_ms", "ms"),
    ("nettrace.read_cpu_ms", "ms"),
    ("nettrace.reassembly_cpu_ms", "ms"),
    ("nettrace.http_cpu_ms", "ms"),
    ("nettrace.ingest_MB_per_s", "MB/s"),
    ("nettrace.allocs_per_packet", "allocs/packet"),
    ("nettrace.packets", "count"),
    ("nettrace.loss_total", "count"),
    ("wirefront.loop_cpu_ms", "ms"),
    ("wirefront.source_cpu_ms", "ms"),
    ("wirefront.ingest_MB_per_s", "MB/s"),
    ("wirefront.proxy_added_p50_us", "us"),
    ("wirefront.proxy_added_p99_us", "us"),
    ("origin.direct_p50_us", "us"),
    ("origin.direct_p99_us", "us"),
    ("wirefront.connections", "count"),
    ("wirefront.tap_overflows", "count"),
    ("wirefront.source_drops", "count"),
    ("wirefront.feed_order_inversions", "count"),
    ("wirefront.allocs_per_tx", "allocs/tx"),
    ("streamd.feeder_cpu_ms", "ms"),
    ("streamd.shard_cpu_ms", "ms"),
    ("streamd.shard_imbalance", "ratio"),
    ("streamd.backpressure_waits", "count"),
    ("streamd.dropped", "count"),
    ("streamd.allocs_per_tx", "allocs/tx"),
    ("detector.single_thread_cpu_ms", "ms"),
    ("detector.observe_p50_ns", "ns"),
    ("detector.observe_p99_ns", "ns"),
    ("detector.classifications_per_ktx", "count/ktx"),
    ("detector.alerts_per_classification", "ratio"),
    ("detector.conversations", "count"),
    ("detector.live_bytes", "bytes"),
    ("detector.verdicts_differing_from_replay", "count"),
    ("forensic.final_pass_ms", "ms"),
    ("wcg.build_us_per_conv", "us"),
    ("features.extract_us_per_wcg", "us"),
    ("mlearn.score_us_per_row", "us"),
    ("mlearn.train_s", "s"),
    ("model.load_ms", "ms"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

struct Args {
    workload: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <replay_pcap|tail_capture|proxy_inline> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => {
                seed = value.parse().map_err(|_| format!("bad value for {flag}: {value}"))?
            }
            "--seconds" => seconds = value.parse().map_err(bad)?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for {flag}: {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload: workload.ok_or("--workload is required")?, seed, seconds, trace })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(WORK_DIR).expect("create the work directory");
    let outcome = run(&args, Path::new(WORK_DIR));
    outcome.print(&args);
}

/// A file removed when the run ends, also on a panic.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Everything one run reports.
struct Outcome {
    passes: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

fn run(args: &Args, work_dir: &Path) -> Outcome {
    let kind = args.workload;
    eprintln!("perfbench: {} seed {}: generating inputs", kind.name(), args.seed);
    let mut inputs = Inputs::generate(args.seed);
    let training = std::mem::take(&mut inputs.training);
    let capture = (kind == Kind::TailCapture).then(|| {
        let path = work_dir.join(format!("capture-{}.pcap", std::process::id()));
        std::fs::write(&path, &inputs.pcap).expect("write the capture file");
        RemoveOnDrop(path)
    });
    let capture_path = capture.as_ref().map(|c| c.0.clone());

    // Set-up: offline analytics, model load, engine, capture open or
    // proxy bind. Everything before the first byte is offered.
    let mut setup_s = Vec::new();
    let (mut train_s, mut load_s) = (Vec::new(), Vec::new());
    let mut model = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let (m, trained) = inputs::train(&training, args.seed);
        let engine = StreamEngine::new(m.clone(), detector_config(), stream_config());
        let source = open_source(kind, capture_path.as_deref());
        setup_s.push(started.elapsed().as_secs_f64());
        drop((engine, source));
        train_s.push(trained.train_s);
        load_s.push(trained.load_s);
        model = Some(m);
    }
    drop(training);
    eprintln!(
        "perfbench: set-up {:.3} s (median of {SETUP_REPEATS}); computing the reference",
        median(&setup_s)
    );
    let workload = Workload::prepare(kind, model.expect("a model"), inputs, capture_path);

    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, Waterfall)> = Vec::new();
    let mut last_tracer: Option<Tracer> = None;
    // The warm-up pass starts from a trimmed heap and gives the memory
    // peak of one pass; it is checked but not timed. The timed passes
    // reuse the memory it faulted in.
    let meter = PeakMeter::start();
    let mut warm_up = workload.pass(u64::MAX, None);
    warm_up.engine = None;
    let mem_peak_mb = meter.growth() as f64 / 1e6;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut run_id = 0u64;
    loop {
        let pass = if args.trace && untraced.len() > traced.len() {
            let tracer = Tracer::new();
            let mut pass = workload.pass(run_id, Some(&tracer));
            let waterfall = tracer.waterfall(0);
            traced_layers(kind, &waterfall, &tracer, &mut pass);
            if let Some((old, _)) = traced.last_mut() {
                old.engine = None;
            }
            traced.push((pass, waterfall));
            last_tracer = Some(tracer);
            &traced.last().expect("just pushed").0
        } else {
            let mut pass = workload.pass(run_id, None);
            pass.engine = None;
            untraced.push(pass);
            untraced.last().expect("just pushed")
        };
        let latency = match pass.latencies_us.as_slice() {
            [] => String::new(),
            l => format!(", p50 {:.0} us, p99 {:.0} us", percentile(l, 50.0), percentile(l, 99.0)),
        };
        eprintln!(
            "perfbench: pass {run_id}: {:.3} s, {:.0} tx/s{latency}",
            pass.wall_s,
            pass.transactions as f64 / pass.wall_s
        );
        run_id += 1;
        let have_both = !args.trace || !traced.is_empty();
        if Instant::now() >= deadline && have_both {
            break;
        }
    }
    eprintln!("perfbench: {} untraced and {} traced passes", untraced.len(), traced.len());

    let all: Vec<&Pass> =
        std::iter::once(&warm_up).chain(&untraced).chain(traced.iter().map(|(p, _)| p)).collect();
    let mut outcome = Outcome {
        passes: all.len() - 1,
        attempted: all.iter().map(|p| p.attempted).sum(),
        failed: all.iter().map(|p| p.failed).sum(),
        problems: all.iter().flat_map(|p| p.problems.iter().cloned()).collect(),
        metrics: BTreeMap::new(),
        notes: Vec::new(),
    };
    outcome.problems.sort();
    outcome.problems.dedup();
    let first = &untraced[0];
    for key in ["wirefront.feed_order_inversions", "detector.verdicts_differing_from_replay"] {
        if let Some(v) = first.layers.get(key) {
            outcome
                .notes
                .push(format!("{key} = {v} (known live-path divergence, counted, not failed)"));
        }
    }
    outcome.notes.push(format!(
        "transactions per pass {}, error_rate {} ({} failed / {} attempted)",
        first.transactions,
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.failed,
        outcome.attempted
    ));

    if args.trace {
        let tracer = last_tracer.expect("a traced pass");
        let mut layers = layer_medians(&traced);
        layers.insert("mlearn.train_s", median(&train_s));
        layers.insert("model.load_ms", median(&load_s) * 1e3);
        let untraced_wall = median(&untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let traced_wall = median(&traced.iter().map(|(p, _)| p.wall_s).collect::<Vec<_>>());
        layers.insert("trace.overhead", traced_wall / untraced_wall - 1.0);
        probe(kind, &tracer, &workload, &mut traced, &untraced, &mut layers);
        let unattributed = layers["trace.unattributed_frac"];
        if unattributed > UNATTRIBUTED_TOLERANCE {
            outcome.problems.push(format!(
                "layer self-CPU leaves {:.1}% of program CPU unattributed (tolerance {:.0}%)",
                unattributed * 100.0,
                UNATTRIBUTED_TOLERANCE * 100.0
            ));
        }
        eprint!("{}", traced.last().expect("a traced pass").1.render(kind.name()));
        let trace_path = work_dir.join(format!("trace-{}.jsonl", kind.name()));
        match tracer.write_jsonl(&trace_path) {
            Ok(()) => {
                eprintln!("perfbench: {} spans written to {}", tracer.len(), trace_path.display())
            }
            Err(e) => eprintln!("perfbench: could not write {}: {e}", trace_path.display()),
        }
        outcome.metrics =
            PER_LAYER.iter().map(|(n, _)| (*n, layers.get(n).copied().unwrap_or(0.0))).collect();
    } else {
        let (metrics, p99) = end_to_end(kind, &untraced, &setup_s, mem_peak_mb);
        outcome.metrics = metrics;
        outcome.notes.push(format!("req_p99_us {p99:.4} us (printed, not bounded)"));
    }
    workload.finish();
    outcome
}

/// End-to-end metrics: medians over the untraced passes, or over the
/// one-second windows of the proxy passes. Also returns the p99 request
/// latency, which is printed but not bounded (see the README).
fn end_to_end(
    kind: Kind,
    passes: &[Pass],
    setup_s: &[f64],
    mem_peak_mb: f64,
) -> (BTreeMap<&'static str, f64>, f64) {
    let per = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let (tx_per_s, [p50, p90, p99]) = if kind == Kind::ProxyInline {
        (window_median(passes, |w| w.completed), window_latency(passes))
    } else {
        // A batch workload's one request is the whole capture.
        let mut walls: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e6).collect();
        walls.sort_by(f64::total_cmp);
        let q = |p: f64| percentile(&walls, p);
        (per(&|p: &Pass| p.transactions as f64 / p.wall_s), [median(&walls), q(90.0), q(99.0)])
    };
    let metrics = BTreeMap::from([
        ("setup_s", median(setup_s)),
        ("tx_per_s", tx_per_s),
        (
            "cpu_ms_per_ktx",
            per(&|p: &Pass| p.cpu_ns as f64 / 1e6 / (p.transactions.max(1) as f64 / 1e3)),
        ),
        ("req_p50_us", p50),
        ("req_p90_us", p90),
        ("mem_peak_MB", mem_peak_mb),
    ]);
    (metrics, p99)
}

/// Median over the one-second windows of the proxy passes. Closed-loop
/// clients see brief host-wide stalls (CPU steal on a shared host) as
/// latency spikes; the median second is steady.
fn window_median(passes: &[Pass], f: impl Fn(&loopback::Window) -> f64) -> f64 {
    median(&passes.iter().flat_map(|p| p.windows.iter().map(&f)).collect::<Vec<_>>())
}

/// Median per-window request latency percentiles (p50, p90, p99), us.
fn window_latency(passes: &[Pass]) -> [f64; 3] {
    [
        window_median(passes, |w| w.p50_us),
        window_median(passes, |w| w.p90_us),
        window_median(passes, |w| w.p99_us),
    ]
}

/// Per-layer figures of one traced pass, from its waterfall. On
/// `replay_pcap`, which has no `wirefront` source, the loop and source
/// figures describe the same roles: the calling thread and the ingest
/// call.
fn traced_layers(kind: Kind, w: &Waterfall, tracer: &Tracer, pass: &mut Pass) {
    let l = &mut pass.layers;
    l.insert("streamd.shard_cpu_ms", w.self_ms("streamd.shard"));
    l.insert("forensic.final_pass_ms", w.self_ms("forensic.final_pass"));
    l.insert("trace.unattributed_frac", w.unattributed_frac());
    if kind == Kind::ReplayPcap {
        let ingest = w.self_ms("nettrace.ingest");
        let feeder = w.self_ms("streamd.feed") + w.self_ms("streamd.order");
        l.insert("nettrace.ingest_cpu_ms", ingest);
        l.insert("streamd.feeder_cpu_ms", feeder);
        l.insert("wirefront.source_cpu_ms", ingest);
        l.insert("wirefront.loop_cpu_ms", ingest + feeder + w.self_ms("forensic.final_pass"));
        if let Some(span) = tracer.find("nettrace.ingest") {
            let ingest_s = span.end_ns.saturating_sub(span.start_ns) as f64 / 1e9;
            l.insert("wirefront.ingest_MB_per_s", pass.source_bytes as f64 / 1e6 / ingest_s);
        }
        return;
    }
    let pump =
        if kind == Kind::TailCapture { "wirefront.capture_pump" } else { "wirefront.proxy_pump" };
    let source = w.self_ms(pump) + w.self_ms("wirefront.wait") + w.self_ms("wirefront.shutdown");
    l.insert("wirefront.source_cpu_ms", source);
    l.insert("streamd.feeder_cpu_ms", w.self_ms("wirefront.run"));
    l.insert(
        "wirefront.loop_cpu_ms",
        source + w.self_ms("wirefront.run") + w.self_ms("forensic.final_pass"),
    );
    if let (Some(run), Some(fin)) =
        (tracer.find("wirefront.run"), tracer.find("forensic.final_pass"))
    {
        let ingest_s = fin.start_ns.saturating_sub(run.start_ns) as f64 / 1e9;
        l.insert("wirefront.ingest_MB_per_s", pass.source_bytes as f64 / 1e6 / ingest_s);
    }
}

/// Median of each per-layer figure over the traced passes.
fn layer_medians(traced: &[(Pass, Waterfall)]) -> BTreeMap<&'static str, f64> {
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (pass, _) in traced {
        for (k, v) in &pass.layers {
            values.entry(k).or_default().push(*v);
        }
    }
    values.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// The traced run's probes, over the last traced pass's engine.
fn probe(
    kind: Kind,
    tracer: &Tracer,
    workload: &Workload,
    traced: &mut [(Pass, Waterfall)],
    untraced: &[Pass],
    layers: &mut BTreeMap<&'static str, f64>,
) {
    eprintln!("perfbench: probes");
    let engine = traced.last_mut().and_then(|(p, _)| p.engine.take()).expect("a traced engine");
    let delivered = Workload::delivered(&engine);
    layers.extend(probes::detector(tracer, &workload.model, &delivered));
    let trackers = || engine.detectors().iter().map(|d| d.tracker());
    layers.insert(
        "detector.conversations",
        trackers().map(|t| t.conversation_count()).sum::<usize>() as f64,
    );
    layers.insert("detector.live_bytes", trackers().map(|t| t.live_bytes()).sum::<usize>() as f64);
    let [build, extract, score] = probes::final_pass_split(tracer, &engine, &workload.model);
    layers.insert("wcg.build_us_per_conv", build);
    layers.insert("features.extract_us_per_wcg", extract);
    layers.insert("mlearn.score_us_per_row", score);
    // The offline ingest engine on the workload's capture bytes. On the
    // wire workloads it is a same-run comparison for their own source.
    if kind != Kind::ReplayPcap {
        layers.extend(probes::ingest(tracer, &workload.pcap));
    }
    let (read, reassembly) = probes::nettrace_split(tracer, &workload.pcap);
    let ingest = layers.get("nettrace.ingest_cpu_ms").copied().unwrap_or(0.0);
    layers.insert("nettrace.read_cpu_ms", read);
    layers.insert("nettrace.reassembly_cpu_ms", reassembly);
    layers.insert("nettrace.http_cpu_ms", (ingest - read - reassembly).max(0.0));

    let (direct, proxied) = workload.latency_probe();
    let (d50, d99) = (percentile(&direct, 50.0), percentile(&direct, 99.0));
    let (p50, p99) = match kind {
        Kind::ProxyInline => {
            let [p50, _, p99] = window_latency(untraced);
            (p50, p99)
        }
        _ => (percentile(&proxied, 50.0), percentile(&proxied, 99.0)),
    };
    layers.insert("origin.direct_p50_us", d50);
    layers.insert("origin.direct_p99_us", d99);
    layers.insert("wirefront.proxy_added_p50_us", p50 - d50);
    layers.insert("wirefront.proxy_added_p99_us", p99 - d99);
}

impl Outcome {
    fn print(&self, args: &Args) {
        let units: BTreeMap<&str, &str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        println!(
            "perfbench {} seed {} ({}): {} timed passes in {} s after one warm-up pass",
            args.workload.name(),
            args.seed,
            if args.trace { "traced" } else { "untraced" },
            self.passes,
            args.seconds
        );
        let order: Vec<&str> = if args.trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        for name in &order {
            println!("  {name:<40} {:>16.4} {}", self.metrics[name], units[name]);
        }
        for note in &self.notes {
            println!("  {note}");
        }
        for problem in &self.problems {
            println!("  INCORRECT: {problem}");
        }
        let metrics: Vec<String> = order
            .iter()
            .map(|name| {
                let v = self.metrics[name];
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", units[name])
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload tail_capture --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(a.workload, Kind::TailCapture);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12.0, true));
        assert!(args("--workload nope --seed 1").is_err());
        assert!(args("--seed 1").is_err());
        assert!(args("--workload replay_pcap --trace 2").is_err());
    }

    #[derive(serde::Deserialize)]
    struct Named {
        name: String,
    }

    #[derive(serde::Deserialize)]
    struct Metric {
        name: String,
        unit: String,
    }

    #[derive(serde::Deserialize)]
    struct BenchmarkFile {
        workloads: Vec<Named>,
        end_to_end: Vec<Metric>,
        per_layer: Vec<Metric>,
    }

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn metric_lists_match_the_benchmark_file() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let file: BenchmarkFile =
            serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let pairs = |list: &[Metric]| -> Vec<(String, String)> {
            list.iter().map(|m| (m.name.clone(), m.unit.clone())).collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(pairs(&file.end_to_end), own(&END_TO_END));
        assert_eq!(pairs(&file.per_layer), own(&PER_LAYER));
        let workloads: Vec<&str> = file.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(workloads, Kind::ALL.iter().map(|k| k.name()).collect::<Vec<_>>());
    }
}
