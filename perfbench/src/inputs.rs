//! Seeded inputs, the offline-analytics set-up, and the references
//! every pass is checked against.

use std::time::Instant;

use dynaminer::classifier::{build_dataset_parallel, Classifier, FeatureSelection};
use dynaminer::detector::{Alert, DetectorConfig, OnTheWireDetector};
use dynaminer::forensic::{analyze_pcap, DownloadRecord, ForensicReport};
use mlearn::forest::ForestConfig;
use nettrace::{HttpTransaction, IngestReport, SpanPipeline};
use streamd::StreamConfig;
use synthtraffic::wire::{episodes_pcap, merged_wire_transactions, wire_episode_set};
use synthtraffic::Episode;

/// Episodes in the replayed capture. `wire_episode_set` runs out of
/// unique client ports at about 3,200; 2,400 gives a ~110 MB capture
/// of ~31k transactions.
pub const EPISODES: usize = 2400;
/// Infection episodes, at the paper's 770:980 ground-truth ratio.
pub const INFECTIONS: usize = EPISODES * 770 / (770 + 980);
/// Engine shards, and client threads of the proxy workload.
pub const SHARDS: usize = 2;
/// Threads for the offline-analytics phase (featurization and fit).
pub const TRAIN_THREADS: usize = 2;

/// Detector settings shared by every path. The final verdict pass runs
/// on the calling thread (`scoring_threads: 1`): the two shards already
/// occupy two cores during the live phase, and it keeps all program CPU
/// on threads the traced run can attribute.
pub fn detector_config() -> DetectorConfig {
    DetectorConfig { scoring_threads: 1, ..DetectorConfig::default() }
}

/// Engine settings shared by every path.
pub fn stream_config() -> StreamConfig {
    StreamConfig { shards: SHARDS, ..StreamConfig::default() }
}

/// Everything generated from the seed. None of it is timed.
pub struct Inputs {
    /// The capture's episodes, as the proxy clients replay them: one
    /// stream in timestamp order, indexed by replay id.
    pub transactions: Vec<HttpTransaction>,
    /// The merged capture of every episode.
    pub pcap: Vec<u8>,
    /// The paper's ground-truth corpus, for the offline-analytics phase.
    pub training: Vec<Episode>,
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let episodes = wire_episode_set(seed, INFECTIONS, EPISODES - INFECTIONS);
        let transactions = merged_wire_transactions(&episodes);
        let pcap = episodes_pcap(&episodes).expect("render the episode capture");
        let training = synthtraffic::ground_truth(seed, 1.0);
        Inputs { transactions, pcap, training }
    }
}

/// Timings of one offline-analytics phase.
#[derive(Debug, Clone, Copy)]
pub struct Trained {
    /// Featurization plus forest fit, seconds.
    pub train_s: f64,
    /// Model JSON decode, seconds.
    pub load_s: f64,
}

/// The offline-analytics phase: featurize the ground-truth corpus,
/// fit the forest, and round-trip the model through its JSON form the
/// way a deployment loads it.
pub fn train(training: &[Episode], seed: u64) -> (Classifier, Trained) {
    let started = Instant::now();
    let items: Vec<(&[HttpTransaction], bool)> =
        training.iter().map(|e| (e.transactions.as_slice(), e.is_infection())).collect();
    let data = build_dataset_parallel(&items, TRAIN_THREADS);
    let fitted = Classifier::fit_threaded(
        &data,
        FeatureSelection::All,
        &ForestConfig::default(),
        seed,
        TRAIN_THREADS,
    );
    let train_s = started.elapsed().as_secs_f64();
    let json = serde_json::to_string(&fitted).expect("encode model");
    let loading = Instant::now();
    let model: Classifier = serde_json::from_str(&json).expect("decode model");
    let load_s = loading.elapsed().as_secs_f64();
    (model, Trained { train_s, load_s })
}

/// The reference results of the capture, computed once per run.
pub struct Reference {
    /// Transactions the lenient span-pipeline extraction recovers.
    pub extracted: u64,
    /// The extraction without trusted-vendor traffic (which the
    /// detector weeds out before storing), kept only when asked for.
    pub tracked: Vec<HttpTransaction>,
    /// Single-threaded strict replay (`forensic::analyze_pcap`).
    pub report: ForensicReport,
    /// [`report_key`] of `report`.
    pub report_key: String,
    /// [`ledger_key`] of the report's downloads.
    pub ledger_key: String,
    /// Alerts of a single-threaded detector over the extraction.
    pub alerts: Vec<String>,
}

impl Reference {
    pub fn compute(pcap: &[u8], model: &Classifier, keep_tracked: bool) -> Reference {
        let mut ingest = IngestReport::new();
        let mut transactions = SpanPipeline::new().extract_lenient(pcap, &mut ingest);
        let report = analyze_pcap(pcap, model.clone(), detector_config()).expect("strict replay");
        let mut detector = OnTheWireDetector::new(model.clone(), detector_config());
        for tx in &transactions {
            detector.observe(tx);
        }
        let extracted = transactions.len() as u64;
        let trusted = &detector_config().trusted;
        transactions.retain(|t| keep_tracked && !trusted.is_trusted(&t.host));
        Reference {
            extracted,
            tracked: transactions,
            report_key: report_key(&report),
            ledger_key: ledger_key(&report.downloads),
            alerts: alert_keys(detector.alerts()),
            report,
        }
    }
}

/// A report's comparable form: its JSON without the per-source
/// `ingest` and `stats` fields.
pub fn report_key(report: &ForensicReport) -> String {
    let mut r = report.clone();
    r.ingest = None;
    r.stats = None;
    serde_json::to_string(&r).expect("encode report")
}

/// A download ledger's order-free comparable form.
pub fn ledger_key(downloads: &[DownloadRecord]) -> String {
    let mut keys: Vec<String> =
        downloads.iter().map(|d| serde_json::to_string(d).expect("encode download")).collect();
    keys.sort();
    keys.join("\n")
}

/// Alerts as a sorted multiset of their JSON forms.
pub fn alert_keys(alerts: &[Alert]) -> Vec<String> {
    let mut keys: Vec<String> =
        alerts.iter().map(|a| serde_json::to_string(a).expect("encode alert")).collect();
    keys.sort();
    keys
}

/// Entries of sorted multiset `reference` that sorted multiset `got`
/// lacks.
pub fn missing_from(reference: &[String], got: &[String]) -> usize {
    let (mut i, mut j, mut missing) = (0, 0, 0);
    while i < reference.len() {
        if j < got.len() && got[j] < reference[i] {
            j += 1;
        } else if j < got.len() && got[j] == reference[i] {
            i += 1;
            j += 1;
        } else {
            missing += 1;
            i += 1;
        }
    }
    missing
}

/// Conversation verdicts as a sorted multiset of their JSON forms.
pub fn verdict_keys(report: &ForensicReport) -> Vec<String> {
    let mut keys: Vec<String> = report
        .conversations
        .iter()
        .map(|v| serde_json::to_string(v).expect("encode verdict"))
        .collect();
    keys.sort();
    keys
}

/// Transactions the live path delivered that the reference extraction
/// does not hold, compared as multisets with feed-order sequence
/// numbers cleared. `got` is sorted in place.
pub fn transaction_mismatches(reference: &[HttpTransaction], got: &mut [HttpTransaction]) -> u64 {
    let key = |a: &HttpTransaction, b: &HttpTransaction| {
        a.ts.total_cmp(&b.ts)
            .then(a.client.addr.cmp(&b.client.addr))
            .then(a.client.port.cmp(&b.client.port))
    };
    got.sort_by(key);
    let mut want: Vec<&HttpTransaction> = reference.iter().collect();
    want.sort_by(|a, b| key(a, b));
    let mut mismatches = reference.len().abs_diff(got.len()) as u64;
    for (w, g) in want.iter().zip(got.iter()) {
        if (HttpTransaction { seq: w.seq, ..g.clone() }) != **w {
            mismatches += 1;
        }
    }
    mismatches
}

/// Adjacent timestamp inversions within each client's stream, in feed
/// (`seq`) order: the count of transactions a client's detector saw
/// before an earlier one. `txs` is sorted by `seq` in place.
pub fn feed_order_inversions(txs: &mut [HttpTransaction]) -> u64 {
    txs.sort_by_key(|t| t.seq);
    let mut last: std::collections::HashMap<std::net::Ipv4Addr, f64> = Default::default();
    let mut inversions = 0;
    for tx in txs.iter() {
        if let Some(prev) = last.insert(tx.client.addr, tx.ts) {
            if tx.ts < prev {
                inversions += 1;
            }
        }
    }
    inversions
}

/// Every transaction a finished engine's trackers hold (the engine
/// keeps all of them: no retention, caps checked by the caller).
pub fn engine_transactions(engine: &streamd::StreamEngine) -> Vec<HttpTransaction> {
    engine
        .detectors()
        .iter()
        .flat_map(|d| d.tracker().conversations())
        .flat_map(|c| c.transactions.iter().cloned())
        .collect()
}

/// Transactions the engine's trackers dropped or evicted (must be 0
/// for [`engine_transactions`] to be complete).
pub fn engine_losses(engine: &streamd::StreamEngine) -> u64 {
    engine
        .detectors()
        .iter()
        .map(|d| {
            let t = d.tracker();
            t.dropped_transaction_count() + (t.evicted_count() + t.cap_evicted_count()) as u64
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_from_counts_multiset_difference() {
        let s = |v: &[&str]| v.iter().map(|x| x.to_string()).collect::<Vec<_>>();
        assert_eq!(missing_from(&s(&["a", "b", "b", "c"]), &s(&["a", "b", "c"])), 1);
        assert_eq!(missing_from(&s(&["a", "b"]), &s(&["a", "b", "z"])), 0);
        assert_eq!(missing_from(&s(&["a"]), &s(&[])), 1);
    }

    #[test]
    fn inversions_count_per_client_descents() {
        let episodes = wire_episode_set(3, 1, 1);
        let mut txs = merged_wire_transactions(&episodes);
        assert_eq!(feed_order_inversions(&mut txs), 0);
        let n = txs.len() as u64;
        for (i, tx) in txs.iter_mut().enumerate() {
            tx.seq = n - i as u64;
        }
        let clients: std::collections::HashSet<_> = txs.iter().map(|t| t.client.addr).collect();
        assert_eq!(feed_order_inversions(&mut txs), n - clients.len() as u64);
    }

    #[test]
    fn transaction_multiset_ignores_order_and_seq() {
        let episodes = wire_episode_set(4, 1, 1);
        let reference = merged_wire_transactions(&episodes);
        let mut got = reference.clone();
        got.reverse();
        for tx in &mut got {
            tx.seq += 7;
        }
        assert_eq!(transaction_mismatches(&reference, &mut got), 0);
        got[0].uri.push('x');
        assert_eq!(transaction_mismatches(&reference, &mut got), 1);
    }
}
