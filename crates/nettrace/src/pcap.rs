//! Reading and writing the classic libpcap capture format.
//!
//! Only the classic (non-ng) format is implemented: a 24-byte global header
//! followed by `(16-byte record header, packet bytes)` pairs. Little-endian
//! and big-endian microsecond captures and little-endian nanosecond
//! captures are accepted on read; files are always written little-endian
//! with microsecond timestamps.

use std::io::{Read, Write};
use std::ops::Range;

use crate::arena::PacketSpan;
use crate::ingest::IngestReport;
use crate::{Error, Result};

/// Little-endian magic number for microsecond-resolution captures.
pub const MAGIC_USEC: u32 = 0xa1b2_c3d4;
/// Byte-swapped magic (capture written on an opposite-endian machine).
pub const MAGIC_USEC_SWAPPED: u32 = 0xd4c3_b2a1;
/// Little-endian magic number for nanosecond-resolution captures
/// (`tcpdump --time-stamp-precision=nano`).
pub const MAGIC_NSEC: u32 = 0xa1b2_3c4d;
/// Length of the global header that precedes the first record.
pub const GLOBAL_HEADER_LEN: usize = 24;
/// Link type for Ethernet frames (DLT_EN10MB).
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Upper bound on `caplen` that we accept; larger values indicate corruption.
pub const MAX_CAPTURE_LEN: u32 = 1 << 24;

/// Byte order and timestamp resolution of a classic capture's records,
/// as declared by its magic number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordFormat {
    swapped: bool,
    /// Sub-second field scale, applied by multiplication.
    frac_scale: f64,
}

impl RecordFormat {
    /// Recognises a classic pcap magic at the start of `bytes`.
    pub fn from_magic(bytes: &[u8]) -> Option<RecordFormat> {
        let magic = u32::from_le_bytes(bytes.get(..4)?.try_into().ok()?);
        let (swapped, frac_scale) = match magic {
            MAGIC_USEC => (false, 1e-6),
            MAGIC_USEC_SWAPPED => (true, 1e-6),
            MAGIC_NSEC => (false, 1e-9),
            _ => return None,
        };
        Some(RecordFormat { swapped, frac_scale })
    }

    fn timestamp(&self, record: &[u8]) -> f64 {
        read_u32(&record[0..4], self.swapped) as f64
            + read_u32(&record[4..8], self.swapped) as f64 * self.frac_scale
    }
}

/// Where a [`walk_records`] call stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Walk {
    /// Offset of the first record not consumed.
    pub pos: usize,
    /// A corrupt record header ended framing: every later byte of the
    /// capture is unframed and counts as skipped.
    pub unframed: bool,
}

/// A single captured packet: a timestamp plus the captured bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Capture time in seconds since the Unix epoch (microsecond precision).
    pub ts: f64,
    /// Captured bytes, starting at the link layer.
    pub data: Vec<u8>,
}

impl Packet {
    /// Creates a packet from a timestamp and raw bytes.
    pub fn new(ts: f64, data: Vec<u8>) -> Self {
        Packet { ts, data }
    }
}

/// Streaming reader for classic pcap files.
#[derive(Debug)]
pub struct PcapReader<R> {
    inner: R,
    format: RecordFormat,
    linktype: u32,
}

impl<R: Read> PcapReader<R> {
    /// Reads and validates the global header.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadPcapMagic`] when the magic number is not a classic
    /// pcap magic, or [`Error::Io`] when the header cannot be read.
    pub fn new(mut inner: R) -> Result<Self> {
        let mut hdr = [0u8; GLOBAL_HEADER_LEN];
        inner.read_exact(&mut hdr)?;
        let format = RecordFormat::from_magic(&hdr)
            .ok_or_else(|| Error::BadPcapMagic(read_u32(&hdr[..4], false)))?;
        let linktype = read_u32(&hdr[20..24], format.swapped);
        Ok(PcapReader { inner, format, linktype })
    }

    /// The link type declared in the global header (1 = Ethernet).
    pub fn linktype(&self) -> u32 {
        self.linktype
    }

    /// Reads the next packet, or `None` at clean end-of-file.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadCaptureLength`] when a record declares a capture
    /// length above [`MAX_CAPTURE_LEN`], or [`Error::Io`] when the file ends
    /// in the middle of a record.
    pub fn next_packet(&mut self) -> Result<Option<Packet>> {
        let mut rec = [0u8; 16];
        match self.inner.read(&mut rec[..1])? {
            0 => return Ok(None),
            _ => self.inner.read_exact(&mut rec[1..])?,
        }
        let caplen = read_u32(&rec[8..12], self.format.swapped);
        if caplen > MAX_CAPTURE_LEN {
            return Err(Error::BadCaptureLength(caplen));
        }
        let mut data = vec![0u8; caplen as usize];
        self.inner.read_exact(&mut data)?;
        Ok(Some(Packet { ts: self.format.timestamp(&rec), data }))
    }

    /// Drains the remaining packets into a vector.
    ///
    /// A file that ends in the middle of its final record — the normal
    /// shape of a live-rotated or interrupted capture — yields every
    /// packet read up to that point rather than failing the whole
    /// capture. Use [`PcapReader::next_packet`] directly to observe the
    /// truncation as an [`Error::Io`].
    ///
    /// # Errors
    ///
    /// Propagates any non-truncation error from
    /// [`PcapReader::next_packet`] (e.g. [`Error::BadCaptureLength`]).
    pub fn collect_packets(mut self) -> Result<Vec<Packet>> {
        let mut out = Vec::new();
        loop {
            match self.next_packet() {
                Ok(Some(p)) => out.push(p),
                Ok(None) => return Ok(out),
                Err(Error::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    return Ok(out); // truncated final record
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Lenient record walk over a whole capture: the global header, then
/// [`walk_records`] to the end of `bytes`. Bytes that are not a classic
/// capture count as skipped; a header cut short marks the capture
/// truncated.
fn walk_records_lenient(
    bytes: &[u8],
    report: &mut IngestReport,
    emit: impl FnMut(f64, Range<usize>),
) {
    if bytes.len() < GLOBAL_HEADER_LEN {
        report.bytes_skipped += bytes.len() as u64;
        report.capture_truncated = true;
        return;
    }
    match RecordFormat::from_magic(bytes) {
        Some(format) => {
            walk_records(bytes, GLOBAL_HEADER_LEN, format, true, usize::MAX, report, emit);
        }
        None => report.bytes_skipped += bytes.len() as u64,
    }
}

/// The one classic-pcap record walk, shared by offline reading and the
/// live file tail: one `emit` per record, with its timestamp and the
/// frame's byte range in `bytes`, for at most `max_records` records
/// starting at `pos`.
///
/// `at_end` says whether `bytes` ends the capture. When it does, a
/// record cut short is dropped and marks the capture truncated; when it
/// does not (a tail waiting for its writer), the walk stops before it
/// and the returned position points at it. Classic pcap has no
/// per-record magic, so decoding cannot resynchronise after a corrupt
/// length field: the walk stops there, counts the rest of `bytes` as
/// skipped, and reports the capture [`Walk::unframed`].
pub fn walk_records(
    bytes: &[u8],
    mut pos: usize,
    format: RecordFormat,
    at_end: bool,
    max_records: usize,
    report: &mut IngestReport,
    mut emit: impl FnMut(f64, Range<usize>),
) -> Walk {
    let mut records = 0;
    while pos < bytes.len() && records < max_records {
        let rest = &bytes[pos..];
        let caplen = (rest.len() >= 16).then(|| read_u32(&rest[8..12], format.swapped));
        if caplen.is_some_and(|c| c > MAX_CAPTURE_LEN) {
            report.records_dropped += 1;
            report.bytes_skipped += rest.len() as u64;
            return Walk { pos: bytes.len(), unframed: true };
        }
        let end = caplen.map(|c| 16 + c as usize).filter(|&end| rest.len() >= end);
        let Some(end) = end else {
            if at_end {
                report.records_dropped += 1;
                report.bytes_skipped += rest.len() as u64;
                report.capture_truncated = true;
                pos = bytes.len();
            }
            break;
        };
        emit(format.timestamp(rest), pos + 16..pos + end);
        report.packets_read += 1;
        pos += end;
        records += 1;
    }
    Walk { pos, unframed: false }
}

/// Reads every decodable packet from classic pcap bytes, never failing.
/// See `walk_records_lenient` for the degradation rules.
pub fn read_packets_lenient(bytes: &[u8], report: &mut IngestReport) -> Vec<Packet> {
    let mut out = Vec::new();
    walk_records_lenient(bytes, report, |ts, range| {
        out.push(Packet { ts, data: bytes[range].to_vec() });
    });
    out
}

/// Zero-copy variant of [`read_packets_lenient`]: appends one
/// [`PacketSpan`] per decodable packet to `out` instead of copying frame
/// bytes. Spans index into `bytes` (the capture arena). Accounting in
/// `report` is byte-identical to the copying reader.
pub fn read_packet_spans_lenient(
    bytes: &[u8],
    report: &mut IngestReport,
    out: &mut Vec<PacketSpan>,
) {
    walk_records_lenient(bytes, report, |ts, range| out.push(PacketSpan { ts, range }));
}

/// Streaming writer for classic pcap files (little-endian, microseconds).
#[derive(Debug)]
pub struct PcapWriter<W> {
    inner: W,
}

impl<W: Write> PcapWriter<W> {
    /// Writes the global header with an Ethernet link type.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the header cannot be written.
    pub fn new(inner: W) -> Result<Self> {
        Self::with_linktype(inner, LINKTYPE_ETHERNET)
    }

    /// Writes the global header with an explicit link type.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when the header cannot be written.
    pub fn with_linktype(mut inner: W, linktype: u32) -> Result<Self> {
        let mut hdr = [0u8; 24];
        hdr[0..4].copy_from_slice(&MAGIC_USEC.to_le_bytes());
        hdr[4..6].copy_from_slice(&2u16.to_le_bytes()); // version major
        hdr[6..8].copy_from_slice(&4u16.to_le_bytes()); // version minor
        // thiszone and sigfigs stay zero.
        hdr[16..20].copy_from_slice(&(MAX_CAPTURE_LEN).to_le_bytes()); // snaplen
        hdr[20..24].copy_from_slice(&linktype.to_le_bytes());
        inner.write_all(&hdr)?;
        Ok(PcapWriter { inner })
    }

    /// Appends one packet record.
    ///
    /// # Errors
    ///
    /// Returns [`Error::BadCaptureLength`] when the packet exceeds
    /// [`MAX_CAPTURE_LEN`] bytes, or [`Error::Io`] on write failure.
    pub fn write_packet(&mut self, packet: &Packet) -> Result<()> {
        if packet.data.len() as u64 > MAX_CAPTURE_LEN as u64 {
            return Err(Error::BadCaptureLength(packet.data.len() as u32));
        }
        let ts_sec = packet.ts.floor() as u32;
        let ts_usec = ((packet.ts - ts_sec as f64) * 1e6).round() as u32;
        let len = packet.data.len() as u32;
        let mut rec = [0u8; 16];
        rec[0..4].copy_from_slice(&ts_sec.to_le_bytes());
        rec[4..8].copy_from_slice(&ts_usec.to_le_bytes());
        rec[8..12].copy_from_slice(&len.to_le_bytes());
        rec[12..16].copy_from_slice(&len.to_le_bytes());
        self.inner.write_all(&rec)?;
        self.inner.write_all(&packet.data)?;
        Ok(())
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Io`] when flushing fails.
    pub fn finish(mut self) -> Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

fn read_u32(b: &[u8], swapped: bool) -> u32 {
    let v = [b[0], b[1], b[2], b[3]];
    if swapped {
        u32::from_be_bytes(v)
    } else {
        u32::from_le_bytes(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(packets: &[Packet]) -> Vec<Packet> {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        for p in packets {
            w.write_packet(p).unwrap();
        }
        w.finish().unwrap();
        PcapReader::new(buf.as_slice()).unwrap().collect_packets().unwrap()
    }

    #[test]
    fn empty_file_roundtrips() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn packets_roundtrip_with_timestamps() {
        let pkts = vec![
            Packet::new(0.0, vec![]),
            Packet::new(1.000001, vec![1, 2, 3]),
            Packet::new(1234567.5, vec![0xff; 1500]),
        ];
        let got = roundtrip(&pkts);
        assert_eq!(got.len(), 3);
        for (a, b) in pkts.iter().zip(&got) {
            assert_eq!(a.data, b.data);
            assert!((a.ts - b.ts).abs() < 1e-5, "ts {} vs {}", a.ts, b.ts);
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = vec![0u8; 24];
        buf[0..4].copy_from_slice(&0x1111_2222u32.to_le_bytes());
        match PcapReader::new(buf.as_slice()) {
            Err(Error::BadPcapMagic(m)) => assert_eq!(m, 0x1111_2222),
            other => panic!("expected BadPcapMagic, got {other:?}"),
        }
    }

    #[test]
    fn rejects_truncated_record() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        w.write_packet(&Packet::new(1.0, vec![9; 10])).unwrap();
        w.finish().unwrap();
        buf.truncate(buf.len() - 4); // chop the packet body
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        assert!(r.next_packet().is_err());
    }

    #[test]
    fn collect_yields_packets_before_truncated_final_record() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        w.write_packet(&Packet::new(1.0, vec![1; 10])).unwrap();
        w.write_packet(&Packet::new(2.0, vec![2; 10])).unwrap();
        w.finish().unwrap();
        buf.truncate(buf.len() - 4); // chop the second packet's body
        let got = PcapReader::new(buf.as_slice()).unwrap().collect_packets().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].data, vec![1; 10]);
    }

    #[test]
    fn lenient_read_counts_truncation() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        w.write_packet(&Packet::new(1.0, vec![1; 10])).unwrap();
        w.write_packet(&Packet::new(2.0, vec![2; 10])).unwrap();
        w.finish().unwrap();
        let chopped = buf.len() - 4;
        buf.truncate(chopped);
        let mut report = IngestReport::new();
        let got = read_packets_lenient(&buf, &mut report);
        assert_eq!(got.len(), 1);
        assert_eq!(report.packets_read, 1);
        assert_eq!(report.records_dropped, 1);
        assert_eq!(report.bytes_skipped, 16 + 6); // record header + partial body
        assert!(report.capture_truncated);
    }

    #[test]
    fn lenient_read_matches_strict_on_clean_capture() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        for i in 0..5u8 {
            w.write_packet(&Packet::new(i as f64, vec![i; i as usize + 1])).unwrap();
        }
        w.finish().unwrap();
        let strict = PcapReader::new(buf.as_slice()).unwrap().collect_packets().unwrap();
        let mut report = IngestReport::new();
        let lenient = read_packets_lenient(&buf, &mut report);
        assert_eq!(strict, lenient);
        assert_eq!(report.packets_read, 5);
        assert!(!report.has_loss());
    }

    #[test]
    fn span_read_matches_copying_read_including_faults() {
        // Clean records followed by a truncated final record: spans and
        // copies must agree packet-for-packet and report-for-report.
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        for i in 0..4u8 {
            w.write_packet(&Packet::new(i as f64, vec![i; 20 + i as usize])).unwrap();
        }
        w.finish().unwrap();
        buf.truncate(buf.len() - 3);
        let mut copy_report = IngestReport::new();
        let packets = read_packets_lenient(&buf, &mut copy_report);
        let mut span_report = IngestReport::new();
        let mut spans = Vec::new();
        read_packet_spans_lenient(&buf, &mut span_report, &mut spans);
        assert_eq!(packets.len(), spans.len());
        for (p, s) in packets.iter().zip(&spans) {
            assert_eq!(p.ts, s.ts);
            assert_eq!(p.data.as_slice(), s.bytes(&buf));
        }
        assert_eq!(copy_report, span_report);
    }

    #[test]
    fn lenient_read_stops_at_oversized_caplen() {
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        w.write_packet(&Packet::new(1.0, vec![7; 3])).unwrap();
        w.finish().unwrap();
        let mut rec = [0u8; 16];
        rec[8..12].copy_from_slice(&(MAX_CAPTURE_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&rec);
        let mut report = IngestReport::new();
        let got = read_packets_lenient(&buf, &mut report);
        assert_eq!(got.len(), 1);
        assert_eq!(report.records_dropped, 1);
        assert_eq!(report.bytes_skipped, 16);
        assert!(!report.capture_truncated, "corruption, not truncation");
    }

    #[test]
    fn rejects_oversized_caplen() {
        let mut buf = Vec::new();
        PcapWriter::new(&mut buf).unwrap();
        let mut rec = [0u8; 16];
        rec[8..12].copy_from_slice(&(MAX_CAPTURE_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&rec);
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        assert!(matches!(r.next_packet(), Err(Error::BadCaptureLength(_))));
    }

    #[test]
    fn reads_swapped_endianness() {
        // Hand-build a big-endian header + one record.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_USEC.to_be_bytes());
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&[0u8; 8]); // thiszone, sigfigs
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_be_bytes());
        buf.extend_from_slice(&7u32.to_be_bytes()); // ts_sec
        buf.extend_from_slice(&500_000u32.to_be_bytes()); // ts_usec
        buf.extend_from_slice(&2u32.to_be_bytes()); // caplen
        buf.extend_from_slice(&2u32.to_be_bytes()); // origlen
        buf.extend_from_slice(&[0xab, 0xcd]);
        let mut r = PcapReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.linktype(), LINKTYPE_ETHERNET);
        let p = r.next_packet().unwrap().unwrap();
        assert_eq!(p.data, [0xab, 0xcd]);
        assert!((p.ts - 7.5).abs() < 1e-9);
    }

    #[test]
    fn linktype_is_preserved() {
        let mut buf = Vec::new();
        PcapWriter::with_linktype(&mut buf, 101).unwrap();
        let r = PcapReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.linktype(), 101);
    }
}
