//! Format-agnostic capture reading: classic pcap or pcapng, detected by
//! magic.

use crate::arena::PacketSpan;
use crate::ingest::IngestReport;
use crate::pcap::{Packet, PcapReader, RecordFormat};
use crate::{pcapng, Error, Result};

/// The capture format of a byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureFormat {
    /// Classic libpcap.
    Pcap,
    /// pcapng (Wireshark default).
    PcapNg,
}

/// Detects the capture format from leading magic bytes.
pub fn detect(bytes: &[u8]) -> Option<CaptureFormat> {
    if pcapng::is_pcapng(bytes) {
        return Some(CaptureFormat::PcapNg);
    }
    RecordFormat::from_magic(bytes).map(|_| CaptureFormat::Pcap)
}

/// Reads every packet from a capture in either format.
///
/// # Errors
///
/// Returns [`Error::BadPcapMagic`] when the bytes are neither format, or
/// the underlying parser's error on corruption.
pub fn read_packets(bytes: &[u8]) -> Result<Vec<Packet>> {
    match detect(bytes) {
        Some(CaptureFormat::Pcap) => PcapReader::new(bytes)?.collect_packets(),
        Some(CaptureFormat::PcapNg) => pcapng::read_packets(bytes),
        None => {
            let magic = bytes
                .get(0..4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .unwrap_or(0);
            Err(Error::BadPcapMagic(magic))
        }
    }
}

/// Reads every salvageable packet from a capture in either format,
/// never failing.
///
/// Unreadable records are skipped (pcapng resynchronises on block
/// framing; classic pcap yields the prefix before the first corrupt
/// record) and accounted in `report`. Bytes that are not a recognisable
/// capture at all are counted as skipped and produce no packets.
pub fn read_packets_lenient(bytes: &[u8], report: &mut IngestReport) -> Vec<Packet> {
    match detect(bytes) {
        Some(CaptureFormat::Pcap) => crate::pcap::read_packets_lenient(bytes, report),
        Some(CaptureFormat::PcapNg) => pcapng::read_packets_lenient(bytes, report),
        None => {
            report.bytes_skipped += bytes.len() as u64;
            Vec::new()
        }
    }
}

/// Span-based sibling of [`read_packets_lenient`]: same salvage walk in
/// either format, but packets land in `out` as `(ts, range)` spans into
/// `bytes` instead of copied buffers. `out` is an append sink so a
/// caller-owned buffer can be reused across captures.
pub fn read_packet_spans_lenient(
    bytes: &[u8],
    report: &mut IngestReport,
    out: &mut Vec<PacketSpan>,
) {
    match detect(bytes) {
        Some(CaptureFormat::Pcap) => {
            crate::pcap::read_packet_spans_lenient(bytes, report, out);
        }
        Some(CaptureFormat::PcapNg) => {
            pcapng::read_packet_spans_lenient(bytes, report, out);
        }
        None => report.bytes_skipped += bytes.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::PcapWriter;

    fn sample_packets() -> Vec<Packet> {
        vec![Packet::new(1.0, vec![1, 2]), Packet::new(2.5, vec![3])]
    }

    #[test]
    fn detects_and_reads_classic_pcap() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        for p in sample_packets() {
            w.write_packet(&p).unwrap();
        }
        w.finish().unwrap();
        assert_eq!(detect(&buf), Some(CaptureFormat::Pcap));
        assert_eq!(read_packets(&buf).unwrap().len(), 2);
    }

    #[test]
    fn detects_and_reads_pcapng() {
        let buf = pcapng::write_packets(&sample_packets());
        assert_eq!(detect(&buf), Some(CaptureFormat::PcapNg));
        let got = read_packets(&buf).unwrap();
        assert_eq!(got.len(), 2);
        assert_eq!(got[1].data, vec![3]);
    }

    #[test]
    fn rejects_unknown_formats() {
        assert_eq!(detect(b"not a capture"), None);
        assert!(matches!(read_packets(b"not a capture"), Err(Error::BadPcapMagic(_))));
        assert!(matches!(read_packets(b""), Err(Error::BadPcapMagic(0))));
    }

    #[test]
    fn lenient_dispatches_both_formats() {
        let mut classic = Vec::new();
        let mut w = PcapWriter::new(&mut classic).unwrap();
        for p in sample_packets() {
            w.write_packet(&p).unwrap();
        }
        w.finish().unwrap();
        let ng = pcapng::write_packets(&sample_packets());
        for bytes in [classic, ng] {
            let mut report = IngestReport::new();
            let got = read_packets_lenient(&bytes, &mut report);
            assert_eq!(got.len(), 2);
            assert_eq!(report.packets_read, 2);
            assert!(!report.has_loss());
        }
    }

    #[test]
    fn lenient_counts_unrecognisable_input() {
        let mut report = IngestReport::new();
        assert!(read_packets_lenient(b"not a capture", &mut report).is_empty());
        assert_eq!(report.bytes_skipped, 13);
        assert_eq!(report.packets_read, 0);
    }

    #[test]
    fn span_dispatch_matches_copying_dispatch() {
        let mut classic = Vec::new();
        let mut w = PcapWriter::new(&mut classic).unwrap();
        for p in sample_packets() {
            w.write_packet(&p).unwrap();
        }
        w.finish().unwrap();
        let ng = pcapng::write_packets(&sample_packets());
        for bytes in [classic, ng, b"not a capture".to_vec()] {
            let mut copy_report = IngestReport::new();
            let copied = read_packets_lenient(&bytes, &mut copy_report);
            let mut span_report = IngestReport::new();
            let mut spans = Vec::new();
            read_packet_spans_lenient(&bytes, &mut span_report, &mut spans);
            assert_eq!(copy_report, span_report);
            assert_eq!(copied.len(), spans.len());
            for (p, s) in copied.iter().zip(&spans) {
                assert_eq!(p.ts, s.ts);
                assert_eq!(p.data.as_slice(), s.bytes(&bytes));
            }
        }
    }
}
