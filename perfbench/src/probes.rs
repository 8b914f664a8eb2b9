//! Probes of the traced run: single-layer passes over the data a
//! traced pass delivered, each timed around public calls into one
//! layer. They split a layer's cost where the production call is one
//! opaque call (ingest, the final verdict pass) and give the
//! single-threaded detector baseline the shard CPU is compared with.

use std::collections::BTreeMap;
use std::time::Instant;

use bench::alloc_count::allocations;
use dynaminer::classifier::Classifier;
use dynaminer::detector::{Conversation, OnTheWireDetector};
use dynaminer::features::{self, FeatureVector};
use dynaminer::Wcg;
use nettrace::arena::{subslice_range, PacketSpan};
use nettrace::capture::read_packet_spans_lenient;
use nettrace::ether::{EtherFrame, ETHERTYPE_IPV4};
use nettrace::ipv4::{Ipv4Packet, PROTO_TCP};
use nettrace::reassembly::{Endpoint, FlowKey, SpanReassembler, StreamBuf};
use nettrace::tcp::TcpSegment;
use nettrace::{HttpTransaction, IngestReport, SpanPipeline};
use streamd::{shard_of, StreamEngine};

use crate::inputs::{detector_config, SHARDS};
use crate::sys::{self, median, percentile};
use crate::trace::{Clock, Tracer};

/// Repetitions of each split probe; the median is reported.
const PROBE_REPEATS: usize = 3;

/// Probe span run id (probes are not part of any pass).
const PROBE_RUN: u64 = u64::MAX;

/// Median CPU milliseconds and wall seconds of `f` over
/// [`PROBE_REPEATS`] runs, each in a span named `name`.
fn probe_median(tracer: &Tracer, name: &'static str, mut f: impl FnMut()) -> (f64, f64) {
    let (mut cpu, mut wall) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_REPEATS {
        let id = tracer.open(name, PROBE_RUN, Clock::Thread);
        f();
        tracer.close(id);
        let span = tracer.span(id);
        cpu.push(span.cpu_ns as f64 / 1e6);
        wall.push(span.end_ns.saturating_sub(span.start_ns) as f64 / 1e9);
    }
    (median(&cpu), median(&wall))
}

fn probe_cpu_ms(tracer: &Tracer, name: &'static str, f: impl FnMut()) -> f64 {
    probe_median(tracer, name, f).0
}

/// `SpanPipeline::extract_lenient` over the capture, as on the replay
/// path: CPU, throughput, and heap acquisitions per packet.
pub fn ingest(tracer: &Tracer, pcap: &[u8]) -> BTreeMap<&'static str, f64> {
    let (mut packets, mut allocs) = (0u64, 0u64);
    let (cpu_ms, wall_s) = probe_median(tracer, "nettrace.ingest_probe", || {
        let mut report = IngestReport::new();
        let before = allocations();
        std::hint::black_box(SpanPipeline::new().extract_lenient(pcap, &mut report));
        allocs = allocations() - before;
        packets = report.packets_read;
    });
    BTreeMap::from([
        ("nettrace.ingest_cpu_ms", cpu_ms),
        ("nettrace.ingest_MB_per_s", pcap.len() as f64 / 1e6 / wall_s),
        ("nettrace.allocs_per_packet", allocs as f64 / packets.max(1) as f64),
    ])
}

/// Read (pcap record walk plus frame decode) and reassembly CPU of
/// span-pipeline ingest, in milliseconds. Both run the same public
/// calls `SpanPipeline::extract_lenient` makes, stopping before HTTP.
pub fn nettrace_split(tracer: &Tracer, pcap: &[u8]) -> (f64, f64) {
    let mut spans: Vec<PacketSpan> = Vec::new();
    let read = probe_cpu_ms(tracer, "nettrace.read_probe", || {
        spans.clear();
        decode(pcap, &mut spans, None);
    });
    let read_reassemble = probe_cpu_ms(tracer, "nettrace.reassembly_probe", || {
        spans.clear();
        let mut reassembler = SpanReassembler::new();
        decode(pcap, &mut spans, Some(&mut reassembler));
        let mut gaps = 0u64;
        let mut streams = StreamBuf::new();
        reassembler.gather_streams(pcap, &mut gaps, &mut streams);
        std::hint::black_box(streams.len());
    });
    (read, (read_reassemble - read).max(0.0))
}

/// Walks the capture's records and decodes each frame to TCP, feeding
/// the segments to `reassembler` when given.
fn decode(pcap: &[u8], spans: &mut Vec<PacketSpan>, mut reassembler: Option<&mut SpanReassembler>) {
    let mut report = IngestReport::new();
    read_packet_spans_lenient(pcap, &mut report, spans);
    let mut segments = 0u64;
    for span in spans.iter() {
        let Ok(eth) = EtherFrame::parse(&pcap[span.range.clone()]) else { continue };
        if eth.ethertype != ETHERTYPE_IPV4 {
            continue;
        }
        let Ok(ip) = Ipv4Packet::parse(eth.payload) else { continue };
        if ip.protocol != PROTO_TCP {
            continue;
        }
        let Ok(tcp) = TcpSegment::parse(ip.payload) else { continue };
        segments += 1;
        if let Some(r) = reassembler.as_deref_mut() {
            let key = FlowKey::new(
                Endpoint::new(ip.src, tcp.src_port),
                Endpoint::new(ip.dst, tcp.dst_port),
            );
            let payload = subslice_range(pcap, tcp.payload);
            r.push_span(span.ts, key, &tcp, payload);
        }
    }
    std::hint::black_box(segments);
}

/// The final verdict pass split into its three steps over a finished
/// engine's conversations: WCG build per conversation, feature
/// extraction per WCG, and forest scoring per row, microseconds each.
pub fn final_pass_split(tracer: &Tracer, engine: &StreamEngine, model: &Classifier) -> [f64; 3] {
    let convs: Vec<&Conversation> =
        engine.detectors().iter().flat_map(|d| d.tracker().conversations()).collect();
    let n = convs.len().max(1) as f64;
    let mut wcgs: Vec<Wcg> = Vec::new();
    let build = probe_cpu_ms(tracer, "wcg.build_probe", || {
        wcgs = convs.iter().map(|c| Wcg::from_transactions(&c.transactions)).collect();
    });
    let mut fvs: Vec<FeatureVector> = Vec::new();
    let extract = probe_cpu_ms(tracer, "features.extract_probe", || {
        fvs = wcgs.iter().map(features::extract).collect();
    });
    let score = probe_cpu_ms(tracer, "mlearn.score_probe", || {
        std::hint::black_box(model.score_features_batch(&fvs, 1));
    });
    [build * 1e3 / n, extract * 1e3 / n, score * 1e3 / n]
}

/// The single-threaded detector baseline over a delivered stream (feed
/// order): one `OnTheWireDetector` per shard partition, every `observe`
/// call timed.
pub fn detector(
    tracer: &Tracer,
    model: &Classifier,
    delivered: &[HttpTransaction],
) -> BTreeMap<&'static str, f64> {
    let mut detectors: Vec<OnTheWireDetector> =
        (0..SHARDS).map(|_| OnTheWireDetector::new(model.clone(), detector_config())).collect();
    let mut shard_cpu = [0u64; SHARDS];
    let mut observe_ns: Vec<f64> = Vec::with_capacity(delivered.len());
    let span = tracer.open("detector.observe_probe", PROBE_RUN, Clock::Thread);
    for tx in delivered {
        let s = shard_of(tx.client.addr, SHARDS);
        let cpu0 = sys::thread_cpu_ns();
        let t0 = Instant::now();
        std::hint::black_box(detectors[s].observe(tx));
        observe_ns.push(t0.elapsed().as_nanos() as f64);
        shard_cpu[s] += sys::thread_cpu_ns() - cpu0;
    }
    tracer.close(span);
    observe_ns.sort_by(f64::total_cmp);
    let total: u64 = shard_cpu.iter().sum();
    let mean = total as f64 / SHARDS as f64;
    let max = shard_cpu.iter().copied().max().unwrap_or(0) as f64;
    let classifications: usize = detectors.iter().map(|d| d.classification_count()).sum();
    let alerts: usize = detectors.iter().map(|d| d.alerts().len()).sum();
    let tx = delivered.len().max(1) as f64;
    BTreeMap::from([
        ("detector.single_thread_cpu_ms", total as f64 / 1e6),
        ("detector.observe_p50_ns", percentile(&observe_ns, 50.0)),
        ("detector.observe_p99_ns", percentile(&observe_ns, 99.0)),
        ("detector.classifications_per_ktx", classifications as f64 * 1000.0 / tx),
        ("detector.alerts_per_classification", alerts as f64 / classifications.max(1) as f64),
        ("streamd.shard_imbalance", if mean > 0.0 { max / mean } else { 0.0 }),
    ])
}
