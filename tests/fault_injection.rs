//! Fault-injection suite: every mutation class from
//! `synthtraffic::faultgen` must go through the lenient ingest pipeline
//! without a panic or an error, with the ingest counters accounting for
//! what was lost, and with detection surviving on whatever conversations
//! the damage left intact.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use dynaminer::classifier::{build_dataset, Classifier};
use proptest::prelude::*;
use dynaminer::detector::DetectorConfig;
use dynaminer::forensic;
use nettrace::reassembly::{decode_frame, Endpoint};
use nettrace::source::{PumpOutcome, TrafficSource};
use nettrace::transaction::assign_seq;
use nettrace::{HttpTransaction, IngestReport, TransactionExtractor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use synthtraffic::benign::generate_benign;
use synthtraffic::episode::generate_infection;
use synthtraffic::faultgen::{self, Fault};
use synthtraffic::pcapgen::episode_pcap;
use synthtraffic::{BenignScenario, EkFamily};
use wirefront::{CaptureConfig, CaptureSource};

fn classifier() -> &'static Classifier {
    static CLF: OnceLock<Classifier> = OnceLock::new();
    CLF.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(77);
        let mut items: Vec<(Vec<HttpTransaction>, bool)> = Vec::new();
        for i in 0..30 {
            items.push((
                generate_infection(&mut rng, EkFamily::ALL[i % 10], 1.4e9).transactions,
                true,
            ));
            items.push((
                generate_benign(&mut rng, BenignScenario::WEIGHTED[i % 8].0, 1.43e9).transactions,
                false,
            ));
        }
        let data = build_dataset(items.iter().map(|(t, l)| (t.as_slice(), *l)));
        Classifier::fit_default(&data, 7)
    })
}

fn infection_pcap(seed: u64, family: EkFamily) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    episode_pcap(&generate_infection(&mut rng, family, 1.4e9)).unwrap()
}

/// Runs damaged bytes through capture → reassembly → transactions and
/// checks the counters are internally consistent.
fn lenient_extract_checked(bytes: &[u8]) -> (Vec<HttpTransaction>, IngestReport) {
    let mut report = IngestReport::new();
    let packets = nettrace::capture::read_packets_lenient(bytes, &mut report);
    assert_eq!(packets.len() as u64, report.packets_read);
    let txs = TransactionExtractor::extract_lenient(&packets, &mut report);
    assert_eq!(txs.len() as u64, report.transactions_recovered);
    assert!(report.packets_dropped_decode + report.packets_non_tcp <= report.packets_read);
    assert!(
        report.streams_salvaged + report.streams_discarded + report.streams_skipped_non_http
            <= report.streams_total,
        "{report}"
    );
    (txs, report)
}

#[test]
fn every_fault_class_survives_the_pipeline() {
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        for seed in 0..4u64 {
            let pcap = infection_pcap(seed + 1, EkFamily::ALL[(i + seed as usize) % 10]);
            let mut rng = StdRng::seed_from_u64(1000 + seed);
            let hurt = faultgen::apply(&pcap, fault, &mut rng);
            let (txs, report) = lenient_extract_checked(&hurt);
            // Structure-preserving faults must not cost transactions.
            if matches!(fault, Fault::DuplicatePackets | Fault::ReorderPackets) {
                let clean = TransactionExtractor::extract(
                    &nettrace::capture::read_packets(&pcap).unwrap(),
                )
                .unwrap();
                assert_eq!(txs.len(), clean.len(), "{fault} lost transactions");
                assert!(!report.has_loss(), "{fault}: {report}");
            }
        }
    }
}

#[test]
fn compound_damage_survives_the_pipeline() {
    for seed in 0..3u64 {
        let pcap = infection_pcap(seed + 20, EkFamily::ALL[seed as usize % 10]);
        let mut rng = StdRng::seed_from_u64(40 + seed);
        let hurt = faultgen::apply_all(&pcap, &mut rng);
        let _ = lenient_extract_checked(&hurt);
    }
}

#[test]
fn clean_capture_lenient_matches_strict() {
    for (seed, family) in [(3, EkFamily::Angler), (4, EkFamily::Rig), (5, EkFamily::Goon)] {
        let pcap = infection_pcap(seed, family);
        let strict =
            TransactionExtractor::extract(&nettrace::capture::read_packets(&pcap).unwrap())
                .unwrap();
        let (lenient, report) = lenient_extract_checked(&pcap);
        assert_eq!(lenient, strict);
        assert!(!report.has_loss(), "{report}");
    }
}

#[test]
fn fault_free_portions_are_fully_recovered() {
    // Two episodes from different victims, B's packets corrupted, A's
    // untouched: every one of A's transactions must still come through.
    let mut rng = StdRng::seed_from_u64(8);
    let ep_a = generate_infection(&mut rng, EkFamily::Nuclear, 1.4e9);
    let ep_b = generate_infection(&mut rng, EkFamily::Fiesta, 1.4e9);
    assert_ne!(ep_a.victim.addr, ep_b.victim.addr, "episodes must be distinguishable");
    let pcap_a = episode_pcap(&ep_a).unwrap();
    let clean_a =
        TransactionExtractor::extract(&nettrace::capture::read_packets(&pcap_a).unwrap())
            .unwrap();
    for fault in [Fault::MangleRequestLines, Fault::BreakChunkFraming, Fault::CorruptTcpSeq] {
        let mut fault_rng = StdRng::seed_from_u64(9);
        let hurt_b = faultgen::apply(&episode_pcap(&ep_b).unwrap(), fault, &mut fault_rng);
        // Merge A's packets with the damaged B packets into one capture.
        let mut report = IngestReport::new();
        let mut merged = nettrace::capture::read_packets_lenient(&pcap_a, &mut report);
        merged.extend(nettrace::capture::read_packets_lenient(&hurt_b, &mut report));
        merged.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        let mut buf = Vec::new();
        let mut w = nettrace::pcap::PcapWriter::new(&mut buf).unwrap();
        for p in &merged {
            w.write_packet(p).unwrap();
        }
        w.finish().unwrap();
        let (txs, _) = lenient_extract_checked(&buf);
        let recovered_a =
            txs.iter().filter(|t| t.client.addr == ep_a.victim.addr).count();
        assert!(
            recovered_a >= clean_a.len(),
            "{fault}: recovered {recovered_a} of {} fault-free transactions",
            clean_a.len()
        );
    }
}

#[test]
fn corrupted_infection_replay_still_alerts() {
    // Find an infection capture the detector alerts on when clean…
    let clf = classifier();
    let mut chosen = None;
    for seed in 0..12u64 {
        let pcap = infection_pcap(100 + seed, EkFamily::ALL[seed as usize % 10]);
        let report =
            forensic::analyze_pcap_lenient(&pcap, clf.clone(), DetectorConfig::default());
        if report.alerts > 0 {
            chosen = Some(pcap);
            break;
        }
    }
    let pcap = chosen.expect("no clean infection capture alerted");
    // …then confirm structure-preserving damage does not silence it.
    for fault in [Fault::DuplicatePackets, Fault::ReorderPackets] {
        let mut rng = StdRng::seed_from_u64(13);
        let hurt = faultgen::apply(&pcap, fault, &mut rng);
        let report =
            forensic::analyze_pcap_lenient(&hurt, clf.clone(), DetectorConfig::default());
        assert!(report.alerts > 0, "{fault} silenced the detector");
        assert!(report.ingest.is_some());
    }
    // A tail truncation loses data but the surviving conversations still
    // carry the infection.
    let cut = &pcap[..pcap.len() - 3];
    let report = forensic::analyze_pcap_lenient(cut, clf.clone(), DetectorConfig::default());
    assert!(report.alerts > 0, "tail truncation silenced the detector");
    assert!(report.ingest.unwrap().has_loss());
}

#[test]
fn telemetry_counters_track_ingest_reports_across_all_fault_classes() {
    // One long-lived metrics aggregation over every fault class: after
    // each hostile capture is recorded as a per-capture delta report,
    // the telemetry counters must equal the merged report exactly —
    // the 1:1 field↔counter contract of `IngestMetrics`.
    let registry = telemetry::Registry::new();
    let metrics = nettrace::metrics::IngestMetrics::new(&registry);
    let mut merged = IngestReport::new();
    let mut captures = 0u64;
    let mut truncated = 0u64;
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        for seed in 0..3u64 {
            let pcap = infection_pcap(200 + seed, EkFamily::ALL[(i + seed as usize) % 10]);
            let mut rng = StdRng::seed_from_u64(3000 + i as u64 * 10 + seed);
            let hurt = faultgen::apply(&pcap, fault, &mut rng);
            let mut report = IngestReport::new();
            let packets = nettrace::capture::read_packets_lenient(&hurt, &mut report);
            TransactionExtractor::extract_lenient(&packets, &mut report);
            metrics.record(&report);
            captures += 1;
            truncated += u64::from(report.capture_truncated);
            merged.merge(&report);
            // Consistency must hold after every capture, not only at
            // the end — a divergence points at the offending fault.
            metrics.assert_consistent_with(&merged, captures, truncated);
        }
    }
    // The hostile corpus must actually have exercised the malformed-
    // record cause counters, not just the happy path.
    let snap = registry.snapshot();
    assert_eq!(snap.counter("ingest_captures_total"), 11 * 3);
    assert!(snap.counter("ingest_transactions_recovered_total") > 0);
    let loss_causes = [
        "ingest_records_dropped_total",
        "ingest_capture_truncations_total",
        "ingest_packets_dropped_decode_total",
        "ingest_streams_salvaged_total",
        "ingest_streams_discarded_total",
        "ingest_reassembly_gaps_total",
        "ingest_gzip_failures_total",
        "ingest_deflate_failures_total",
        "ingest_chunked_failures_total",
    ];
    let recorded: Vec<&str> =
        loss_causes.into_iter().filter(|c| snap.counter(c) > 0).collect();
    assert!(
        recorded.len() >= 4,
        "fault corpus only moved {} loss-cause counters: {recorded:?}",
        recorded.len()
    );
}

/// Spill-tier accounting across the hostile corpus: for every fault
/// class, a detector running an aggressive spill configuration (every
/// idle conversation is demoted, a tiny spill budget forces hard
/// evictions) must keep the conversation ledger balanced — every
/// created conversation is live, frozen, or accounted to exactly one
/// eviction counter — and the telemetry mirror must match the tracker
/// exactly.
#[test]
fn spill_accounting_balances_across_all_fault_classes() {
    use dynaminer::detector::{OnTheWireDetector, SpillConfig};
    let clf = classifier();
    let mut spilled_total = 0u64;
    let mut spill_evicted_total = 0usize;
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        let pcap = infection_pcap(300 + i as u64, EkFamily::ALL[i % 10]);
        let mut rng = StdRng::seed_from_u64(500 + i as u64);
        let hurt = faultgen::apply(&pcap, fault, &mut rng);
        let (txs, _) = lenient_extract_checked(&hurt);
        let registry = telemetry::Registry::new();
        let config = DetectorConfig {
            spill: Some(SpillConfig {
                // Zero live budget + zero idle threshold: every
                // conversation freezes as soon as another one is
                // touched. The spill budget is small enough for busy
                // captures to overflow it into hard evictions.
                max_live_bytes: 1,
                max_spill_bytes: 24 * 1024,
                min_idle_secs: 0.0,
            }),
            ..DetectorConfig::default()
        };
        let mut det = OnTheWireDetector::with_telemetry(clf.clone(), config, &registry);
        for tx in &txs {
            det.observe(tx);
        }
        let t = det.tracker();
        assert_eq!(
            t.created_count(),
            (t.conversation_count()
                + t.frozen_count()
                + t.evicted_count()
                + t.cap_evicted_count()
                + t.spill_evicted_count()) as u64,
            "{fault}: conversation ledger out of balance"
        );
        assert_eq!(
            t.spilled_count(),
            t.rehydrated_count() + t.frozen_count() as u64 + t.spill_evicted_count() as u64,
            "{fault}: every spilled conversation must be frozen, rehydrated, or hard-evicted"
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("session_spilled_conversations_total"),
            t.spilled_count(),
            "{fault}"
        );
        assert_eq!(snap.counter("session_rehydrations_total"), t.rehydrated_count(), "{fault}");
        assert_eq!(
            snap.counter("session_spill_evictions_total"),
            t.spill_evicted_count() as u64,
            "{fault}"
        );
        assert_eq!(
            snap.gauges["session_conversations_frozen"],
            t.frozen_count() as i64,
            "{fault}"
        );
        assert_eq!(snap.gauges["session_spill_bytes"], t.spill_bytes() as i64, "{fault}");
        spilled_total += t.spilled_count();
        spill_evicted_total += t.spill_evicted_count();
    }
    // The corpus must actually exercise the tier, including the
    // last-resort path — otherwise the identities above are vacuous.
    assert!(spilled_total > 0, "no conversation was ever spilled");
    assert!(spill_evicted_total > 0, "the spill budget never forced a hard eviction");
}

/// Runs damaged bytes through the copying packet pipeline and the
/// zero-copy span pipeline and asserts they are indistinguishable:
/// byte-identical transaction sequences and identical ingest counters.
fn assert_pipelines_identical(bytes: &[u8]) -> (Vec<HttpTransaction>, IngestReport) {
    let mut legacy_report = IngestReport::new();
    let packets = nettrace::capture::read_packets_lenient(bytes, &mut legacy_report);
    let legacy_txs = TransactionExtractor::extract_lenient(&packets, &mut legacy_report);
    let mut span_report = IngestReport::new();
    let span_txs = nettrace::SpanPipeline::extract_capture_lenient(bytes, &mut span_report);
    assert_eq!(legacy_report, span_report, "ingest counters diverged");
    assert_eq!(legacy_txs, span_txs, "transaction sequences diverged");
    (span_txs, span_report)
}

/// Tentpole equivalence: across every `faultgen` mutation class, the
/// zero-copy span pipeline must produce byte-identical transactions,
/// identical ingest accounting, and an identical end-to-end
/// `ForensicReport` JSON document to the copying path it replaced.
#[test]
fn zero_copy_path_matches_copying_path_for_every_fault_class() {
    let clf = classifier();
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        for seed in 0..3u64 {
            let pcap = infection_pcap(700 + seed, EkFamily::ALL[(i + seed as usize) % 10]);
            let mut rng = StdRng::seed_from_u64(7000 + i as u64 * 10 + seed);
            let hurt = faultgen::apply(&pcap, fault, &mut rng);
            let (txs, ingest) = assert_pipelines_identical(&hurt);
            assert_capture_matches(&pcap, &hurt, fault, (&txs, &ingest));
            if seed != 0 {
                continue;
            }
            // End-to-end forensic JSON: replay the copying path's
            // transactions through the detector and compare against the
            // span-pipeline-backed `analyze_pcap_lenient`.
            let span_json = serde_json::to_string(&forensic::analyze_pcap_lenient(
                &hurt,
                clf.clone(),
                DetectorConfig::default(),
            ))
            .unwrap();
            let mut legacy =
                forensic::analyze_transactions(&txs, clf.clone(), DetectorConfig::default());
            legacy.ingest = Some(ingest);
            assert_eq!(
                span_json,
                serde_json::to_string(&legacy).unwrap(),
                "{fault}: forensic JSON diverged"
            );
        }
    }
}

/// Runs capture bytes through the live capture source — a pcap tail
/// without follow, pumped to exhaustion and shut down — and puts its
/// transactions in extraction order.
fn capture_extract(bytes: &[u8]) -> (Vec<HttpTransaction>, IngestReport) {
    static FILES: AtomicU64 = AtomicU64::new(0);
    let path = std::env::temp_dir().join(format!(
        "fault_injection_capture_{}_{}.pcap",
        std::process::id(),
        FILES.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::write(&path, bytes).unwrap();
    let mut src = CaptureSource::pcap_file(&path, false, CaptureConfig::default()).unwrap();
    let mut txs = Vec::new();
    let mut pumps = 0;
    while src.pump(&mut txs).expect("pump") != PumpOutcome::Exhausted {
        pumps += 1;
        assert!(pumps < 100_000, "capture never exhausted");
    }
    src.shutdown(&mut txs);
    std::fs::remove_file(&path).ok();
    (in_extraction_order(txs), src.ingest_report())
}

/// Sorts by request time, ties broken by connection, then numbers the
/// stream: the order both paths are compared in.
fn in_extraction_order(mut txs: Vec<HttpTransaction>) -> Vec<HttpTransaction> {
    txs.sort_by(|a, b| a.ts.total_cmp(&b.ts).then((a.client, a.server).cmp(&(b.client, b.server))));
    assign_seq(&mut txs);
    txs
}

type Connection = (Endpoint, Endpoint);

/// Connections on which `hurt` forges TCP state: some packet whose
/// decoded flow, sequence number or flags differ from its clean
/// original. Both the clean and the forged connection count.
fn forged_connections(clean: &[u8], hurt: &[u8]) -> BTreeSet<Connection> {
    let mut scratch = IngestReport::new();
    let clean = nettrace::capture::read_packets_lenient(clean, &mut scratch);
    let hurt = nettrace::capture::read_packets_lenient(hurt, &mut scratch);
    let mut forged = BTreeSet::new();
    for (c, h) in clean.iter().zip(&hurt) {
        let (Some((ck, cs)), Some((hk, hs))) =
            (decode_frame(&c.data, &mut scratch), decode_frame(&h.data, &mut scratch))
        else {
            continue;
        };
        if (ck, cs.seq, cs.flags) != (hk, hs.seq, hs.flags) {
            forged.insert(ck.connection_id());
            forged.insert(hk.connection_id());
        }
    }
    forged
}

fn by_connection(txs: &[HttpTransaction]) -> BTreeMap<Connection, Vec<HttpTransaction>> {
    let mut map: BTreeMap<Connection, Vec<HttpTransaction>> = BTreeMap::new();
    for tx in txs {
        let mut tx = tx.clone();
        tx.seq = 0;
        let id = if tx.client <= tx.server { (tx.client, tx.server) } else { (tx.server, tx.client) };
        map.entry(id).or_default().push(tx);
    }
    map
}

/// The wire ≡ replay contract on damaged bytes: the live capture source
/// must recover what offline extraction recovers. Faults that only lose,
/// repeat, reorder or rewrite whole packets give identical transactions
/// and identical ingest reports. Faults that forge TCP sequence numbers
/// or flags give identical transactions on every connection they left
/// alone; what differs on the forged ones is printed (DESIGN.md §17
/// explains why it may).
fn assert_capture_matches(
    clean: &[u8],
    hurt: &[u8],
    fault: Fault,
    (offline, offline_report): (&[HttpTransaction], &IngestReport),
) {
    let (wire, wire_report) = capture_extract(hurt);
    let offline = in_extraction_order(offline.to_vec());
    if !matches!(fault, Fault::FlipBytes | Fault::CorruptTcpSeq | Fault::CorruptTcpFlags) {
        assert_eq!(&wire_report, offline_report, "{fault}: ingest reports diverged");
        assert_eq!(wire, offline, "{fault}: transactions diverged");
        return;
    }
    let forged = forged_connections(clean, hurt);
    let (wire, offline) = (by_connection(&wire), by_connection(&offline));
    for id in wire.keys().chain(offline.keys()).collect::<BTreeSet<_>>() {
        let (w, o) = (wire.get(id), offline.get(id));
        if forged.contains(id) {
            if w != o {
                eprintln!(
                    "{fault}: forged connection {} <-> {}: capture {} tx, offline {} tx",
                    id.0,
                    id.1,
                    w.map_or(0, Vec::len),
                    o.map_or(0, Vec::len)
                );
            }
            continue;
        }
        assert_eq!(w, o, "{fault}: connection {} <-> {} diverged", id.0, id.1);
    }
}

proptest! {
    /// Randomized sweep over (seed, fault class, family): the copying
    /// and zero-copy pipelines must agree on arbitrary hostile input,
    /// not just the deterministic corpus above.
    #[test]
    fn zero_copy_equivalence_holds_for_arbitrary_damage(
        seed in 0u64..10_000,
        fault_idx in 0usize..Fault::ALL.len(),
        family_idx in 0usize..EkFamily::ALL.len(),
    ) {
        let pcap = infection_pcap(seed + 1, EkFamily::ALL[family_idx]);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_f001);
        let hurt = faultgen::apply(&pcap, Fault::ALL[fault_idx], &mut rng);
        let fault = Fault::ALL[fault_idx];
        let (txs, report) = assert_pipelines_identical(&hurt);
        prop_assert_eq!(txs.len() as u64, report.transactions_recovered);
        assert_capture_matches(&pcap, &hurt, fault, (&txs, &report));
        // Truncation-style damage must also agree: cut the capture
        // mid-record and mid-packet.
        if hurt.len() > 40 {
            for cut in [&hurt[..hurt.len() - 7], &hurt[..hurt.len() / 2]] {
                let (txs, report) = assert_pipelines_identical(cut);
                assert_capture_matches(&pcap, cut, fault, (&txs, &report));
            }
        }
    }
}

#[test]
fn every_fault_class_replays_through_the_detector() {
    let clf = classifier();
    for (i, fault) in Fault::ALL.into_iter().enumerate() {
        let pcap = infection_pcap(50 + i as u64, EkFamily::ALL[i % 10]);
        let mut rng = StdRng::seed_from_u64(60 + i as u64);
        let hurt = faultgen::apply(&pcap, fault, &mut rng);
        let report = forensic::analyze_pcap_lenient(&hurt, clf.clone(), DetectorConfig::default());
        let ingest = report.ingest.expect("lenient replay always reports ingest health");
        // Replay counts after trusted-vendor weed-out, so recovered is
        // an upper bound.
        assert!(ingest.transactions_recovered as usize >= report.transactions);
    }
}

