//! The live-capture traffic source: packets in, transactions out.
//!
//! Two backends sit behind one [`CaptureSource`]:
//!
//! * **pcap tail** (portable, the testable path) — follows a classic
//!   libpcap file as it grows, `tail -f` style. Records go through
//!   [`nettrace::pcap::walk_records`], the walk offline replay uses: a
//!   record cut short at the current end of file waits for the writer
//!   under `follow`, and otherwise counts as a truncated capture.
//! * **`AF_PACKET`** (Linux, compile-gated, requires `CAP_NET_RAW`) —
//!   a non-blocking raw socket bound to one interface, with kernel
//!   ring-drop accounting folded into `source_drops`.
//!
//! Both feed the same flow table, which runs on offline ingest's
//! pieces: frames decode through [`decode_frame`], each flow direction
//! reassembles with [`LiveStream`] (offline span reassembly's sequence
//! rules and gather, delivered incrementally within a bounded reorder
//! window), and a [`ConnectionTap`] per flow frames and pairs HTTP with
//! the same step as offline parsing. A BPF-style port filter keeps
//! non-web flows out of the table entirely; it also names the server
//! side of a flow, since requests travel towards a filtered port.
//!
//! A flow closes once both directions have ended (FIN or RST) with
//! every byte up to that end delivered. When bytes before an end are
//! missing, the flow waits [`MAX_OOO_SEGMENTS`] more captured frames for
//! them, then closes and flushes with the hole skipped as a counted gap.
//! Recently closed flows are remembered so their late packets are
//! absorbed; a late segment that carries data counts in `source_drops`.
//! A SYN on a remembered flow opens a new one.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fs::File;
use std::io::Read;
use std::path::{Path, PathBuf};

use nettrace::pcap::{self, RecordFormat};
use nettrace::reassembly::{decode_frame, Endpoint, LiveStream, MAX_OOO_SEGMENTS};
use nettrace::source::{PumpOutcome, SourceStats, TrafficSource};
use nettrace::wiretap::{ConnectionTap, TapConfig, TapDir};
use nettrace::{Error, HttpTransaction, IngestReport};

use crate::sys;

/// Frames handled per pump slice, bounding one slice's work.
const FRAMES_PER_SLICE: usize = 256;
/// Capture bytes the file tail keeps buffered ahead of the record walk.
const READ_AHEAD: usize = 1 << 20;
/// Closed flows remembered at most, so that their late packets are
/// absorbed.
const CLOSED_FLOWS_REMEMBERED: usize = 1 << 16;

/// Capture tuning knobs.
#[derive(Debug, Clone)]
pub struct CaptureConfig {
    /// Flows are admitted only when either endpoint's port is listed
    /// (BPF-style `port A or port B` filtering). Empty admits all.
    pub ports: Vec<u16>,
    /// Per-flow observation buffers.
    pub tap: TapConfig,
}

impl Default for CaptureConfig {
    fn default() -> Self {
        CaptureConfig { ports: vec![80], tap: TapConfig::default() }
    }
}

/// One observed TCP flow: a reassembler per direction feeding one tap.
struct Flow {
    tap: ConnectionTap,
    client: Endpoint,
    /// Client → server, then server → client.
    dirs: [LiveStream; 2],
    /// Frame count at which a flow whose directions have both ended
    /// stops waiting for missing bytes.
    deadline: Option<u64>,
}

/// Direction-independent connection key.
type ConnKey = (Endpoint, Endpoint);

const DIRS: [TapDir; 2] = [TapDir::Request, TapDir::Response];

/// The flow table and the counters every flow reports into.
#[derive(Default)]
struct FlowTable {
    config: CaptureConfig,
    flows: BTreeMap<ConnKey, Flow>,
    /// Ended flows waiting for missing bytes, by deadline.
    lingering: VecDeque<(u64, ConnKey)>,
    /// Recently closed flows, each with the frame it closed at; the
    /// oldest are forgotten first (`closed_order`).
    closed: HashMap<ConnKey, u64>,
    closed_order: VecDeque<(ConnKey, u64)>,
    /// Frames handled so far.
    frames: u64,
    stats: SourceStats,
    report: IngestReport,
}

impl FlowTable {
    /// Handles one captured frame, then closes the ended flows whose
    /// wait for missing bytes ran out.
    fn handle_frame(&mut self, ts: f64, frame: &[u8], out: &mut Vec<HttpTransaction>) {
        self.frames += 1;
        self.route(ts, frame, out);
        while let Some(&(deadline, id)) = self.lingering.front() {
            if deadline > self.frames {
                break;
            }
            self.lingering.pop_front();
            if self.flows.get(&id).is_some_and(|f| f.deadline == Some(deadline)) {
                self.close(id, out);
            }
        }
    }

    /// Decodes one captured frame and routes its segment to its flow.
    fn route(&mut self, ts: f64, frame: &[u8], out: &mut Vec<HttpTransaction>) {
        let Some((key, seg)) = decode_frame(frame, &mut self.report) else { return };
        let ports = &self.config.ports;
        let (src_listed, dst_listed) =
            (ports.contains(&key.src.port), ports.contains(&key.dst.port));
        if !ports.is_empty() && !src_listed && !dst_listed {
            return;
        }
        let id = key.connection_id();
        if !self.flows.contains_key(&id) {
            if self.closed.contains_key(&id) && !seg.flags.syn {
                // A late packet of a closed flow. Offline reassembly
                // would fold any new bytes into the finished stream.
                if !seg.payload.is_empty() {
                    self.stats.source_drops += 1;
                }
                return;
            }
            self.closed.remove(&id);
            // Requests travel towards a filtered port; failing that, a
            // bare SYN or the first speaker marks the client.
            let client_is_src = if src_listed != dst_listed {
                dst_listed
            } else {
                !(seg.flags.syn && seg.flags.ack)
            };
            let (client, server) =
                if client_is_src { (key.src, key.dst) } else { (key.dst, key.src) };
            self.stats.connections += 1;
            let tap = ConnectionTap::new(client, server, self.config.tap);
            let flow = Flow { tap, client, dirs: Default::default(), deadline: None };
            self.flows.insert(id, flow);
        }
        let flow = self.flows.get_mut(&id).expect("flow present");
        let i = usize::from(key.src != flow.client);
        let (tap, stats, report, mut gaps) = (&mut flow.tap, &mut self.stats, &mut self.report, 0);
        // Every segment makes its direction a stream, bytes or not.
        tap.offer(DIRS[i], &[], ts, report, out);
        flow.dirs[i].push(ts, &seg, &mut gaps, |ts, bytes| {
            stats.bytes_in += bytes.len() as u64;
            tap.offer(DIRS[i], bytes, ts, report, out);
        });
        report.reassembly_gaps += gaps;
        let overflowed = tap.overflowed();
        stats.tap_overflows += u64::from(overflowed);
        if overflowed || flow.dirs.iter().all(LiveStream::is_complete) {
            self.close(id, out);
        } else if flow.deadline.is_none() && flow.dirs.iter().all(LiveStream::has_ended) {
            let deadline = self.frames + MAX_OOO_SEGMENTS as u64;
            flow.deadline = Some(deadline);
            self.lingering.push_back((deadline, id));
        }
    }

    /// Closes flow `id`, flushing what both directions still hold, and
    /// remembers it.
    fn close(&mut self, id: ConnKey, out: &mut Vec<HttpTransaction>) {
        let mut flow = self.flows.remove(&id).expect("flow present");
        let (tap, stats, report, mut gaps) = (&mut flow.tap, &mut self.stats, &mut self.report, 0);
        for (stream, dir) in flow.dirs.iter_mut().zip(DIRS) {
            stream.flush(&mut gaps, |ts, bytes| {
                stats.bytes_in += bytes.len() as u64;
                tap.offer(dir, bytes, ts, report, out);
            });
        }
        report.reassembly_gaps += gaps;
        tap.close(report, out);
        if self.closed_order.len() == CLOSED_FLOWS_REMEMBERED {
            let (old, at) = self.closed_order.pop_front().expect("memory full");
            if self.closed.get(&old) == Some(&at) {
                self.closed.remove(&old);
            }
        }
        self.closed.insert(id, self.frames);
        self.closed_order.push_back((id, self.frames));
    }
}

/// Incremental pcap-file reader state.
struct PcapTail {
    file: File,
    path: PathBuf,
    /// Capture bytes read; the walk resumes at `pos`.
    buf: Vec<u8>,
    pos: usize,
    /// Record layout, once the global header has been read.
    format: Option<RecordFormat>,
    /// No more records can be framed (a header cut short at the end or a
    /// corrupt record header): later bytes are only counted as skipped.
    unframed: bool,
    /// The last read reached the current end of the file.
    at_eof: bool,
    /// The last walk stopped on a record longer than what was buffered.
    stalled: bool,
    /// Keep polling for growth after EOF (`tail -f`), or report
    /// [`PumpOutcome::Exhausted`] once the file is drained.
    follow: bool,
}

impl PcapTail {
    /// Tops up the buffer, compacting what the walk consumed. Returns
    /// the number of bytes read.
    fn refill(&mut self) -> nettrace::Result<usize> {
        let remaining = self.buf.len() - self.pos;
        if remaining >= READ_AHEAD && !self.stalled {
            return Ok(0);
        }
        self.buf.drain(..self.pos);
        self.pos = 0;
        let want = if self.stalled { remaining.max(READ_AHEAD) } else { READ_AHEAD - remaining };
        let n = (&mut self.file).take(want as u64).read_to_end(&mut self.buf).map_err(Error::Io)?;
        self.at_eof = n < want;
        Ok(n)
    }

    /// Whether the capture is over: the file ended and, unless the tail
    /// follows it, nothing more will be read.
    fn at_end(&self) -> bool {
        self.at_eof && !self.follow
    }

    /// Reads the global header once enough bytes are here, accounting a
    /// header cut short like offline reading. A file that is not a
    /// classic capture (e.g. pcapng) cannot be framed at all and fails
    /// with [`Error::BadPcapMagic`].
    fn read_header(&mut self, report: &mut IngestReport) -> nettrace::Result<Option<RecordFormat>> {
        if self.format.is_none() && !self.unframed {
            if self.buf.len() >= pcap::GLOBAL_HEADER_LEN {
                let magic = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
                let format = RecordFormat::from_magic(&self.buf);
                self.format = Some(format.ok_or(Error::BadPcapMagic(magic))?);
                self.pos = pcap::GLOBAL_HEADER_LEN;
            } else if self.at_end() {
                report.capture_truncated = true;
                self.unframed = true;
            }
        }
        if self.unframed {
            report.bytes_skipped += (self.buf.len() - self.pos) as u64;
            self.buf.clear();
            self.pos = 0;
        }
        Ok(self.format.filter(|_| !self.unframed))
    }
}

enum Backend {
    PcapTail(PcapTail),
    #[cfg(target_os = "linux")]
    Live {
        socket: sys::packet::PacketSocket,
        iface: String,
        /// Receive buffer, reused for every frame.
        frame: Vec<u8>,
    },
}

/// Packet capture as a [`TrafficSource`].
pub struct CaptureSource {
    backend: Backend,
    table: FlowTable,
    /// Frames the kernel dropped before the live backend saw them.
    kernel_drops: u64,
    shut: bool,
}

impl CaptureSource {
    /// Opens a pcap file source. With `follow` the source tails the
    /// file indefinitely (a capture being written live); without it
    /// the source is exhausted at end of file.
    ///
    /// # Errors
    ///
    /// Only an unopenable file; damaged records are absorbed into the
    /// ingest report during pumping, and a file that is not a classic
    /// capture fails the first pump with [`Error::BadPcapMagic`].
    pub fn pcap_file(path: &Path, follow: bool, config: CaptureConfig) -> std::io::Result<Self> {
        let file = File::open(path)?;
        let tail = PcapTail {
            file,
            path: path.to_path_buf(),
            buf: Vec::new(),
            pos: 0,
            format: None,
            unframed: false,
            at_eof: false,
            stalled: false,
            follow,
        };
        Ok(CaptureSource::new(Backend::PcapTail(tail), config))
    }

    /// Opens a live `AF_PACKET` source on `iface` (Linux only;
    /// requires `CAP_NET_RAW` at runtime).
    ///
    /// # Errors
    ///
    /// Missing capability, unknown interface, or socket failure.
    #[cfg(target_os = "linux")]
    pub fn live(iface: &str, config: CaptureConfig) -> std::io::Result<Self> {
        let socket = sys::packet::PacketSocket::open(iface)?;
        let backend = Backend::Live { socket, iface: iface.to_string(), frame: vec![0; 64 * 1024] };
        Ok(CaptureSource::new(backend, config))
    }

    fn new(backend: Backend, config: CaptureConfig) -> Self {
        let table = FlowTable { config, ..FlowTable::default() };
        CaptureSource { backend, table, kernel_drops: 0, shut: false }
    }

    /// Flows currently tracked.
    pub fn active_flows(&self) -> usize {
        self.table.flows.len()
    }

    /// Pumps the pcap-tail backend: read new bytes, walk the complete
    /// records, leave a partial tail pending.
    fn pump_pcap(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        let CaptureSource { backend: Backend::PcapTail(tail), table, .. } = self else {
            unreachable!("pump_pcap on live backend")
        };
        let read = tail.refill()?;
        let mut walked = IngestReport::new();
        if let Some(format) = tail.read_header(&mut table.report)? {
            let walk = pcap::walk_records(
                &tail.buf,
                tail.pos,
                format,
                tail.at_end(),
                FRAMES_PER_SLICE,
                &mut walked,
                |ts, frame| table.handle_frame(ts, &tail.buf[frame], out),
            );
            tail.stalled = walked.packets_read == 0 && walk.pos < tail.buf.len();
            tail.pos = walk.pos;
            tail.unframed = walk.unframed;
            table.report.merge(&walked);
        }
        Ok(if read > 0 || walked.packets_read > 0 {
            PumpOutcome::Progress
        } else if tail.at_end() && tail.pos == tail.buf.len() {
            PumpOutcome::Exhausted
        } else {
            PumpOutcome::Idle
        })
    }

    #[cfg(target_os = "linux")]
    fn pump_live(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        let CaptureSource { backend: Backend::Live { socket, frame, .. }, table, .. } = self else {
            unreachable!("pump_live on pcap backend")
        };
        let mut any = false;
        for _ in 0..FRAMES_PER_SLICE {
            let Some(n) = socket.recv_frame(frame).map_err(Error::Io)? else { break };
            any = true;
            table.report.packets_read += 1;
            table.handle_frame(sys::wall_clock(), &frame[..n], out);
        }
        self.kernel_drops = socket.kernel_drops();
        Ok(if any { PumpOutcome::Progress } else { PumpOutcome::Idle })
    }
}

impl TrafficSource for CaptureSource {
    fn pump(&mut self, out: &mut Vec<HttpTransaction>) -> nettrace::Result<PumpOutcome> {
        if self.shut {
            return Ok(PumpOutcome::Exhausted);
        }
        let before = out.len();
        let is_pcap = matches!(self.backend, Backend::PcapTail(_));
        #[cfg(target_os = "linux")]
        let outcome = if is_pcap { self.pump_pcap(out) } else { self.pump_live(out) };
        #[cfg(not(target_os = "linux"))]
        let outcome = {
            debug_assert!(is_pcap);
            self.pump_pcap(out)
        };
        self.table.stats.transactions += (out.len() - before) as u64;
        // An exhausted non-follow capture still holds open flows; they
        // flush at shutdown.
        outcome
    }

    fn shutdown(&mut self, out: &mut Vec<HttpTransaction>) {
        if self.shut {
            return;
        }
        self.shut = true;
        let before = out.len();
        let table = &mut self.table;
        while let Some((&id, _)) = table.flows.first_key_value() {
            table.close(id, out);
        }
        table.stats.transactions += (out.len() - before) as u64;
    }

    fn stats(&self) -> SourceStats {
        let mut stats = self.table.stats;
        stats.source_drops += self.kernel_drops;
        stats
    }

    fn ingest_report(&self) -> IngestReport {
        self.table.report
    }
}

impl std::fmt::Debug for CaptureSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let backend = match &self.backend {
            Backend::PcapTail(t) => format!("pcap-tail {:?} (follow={})", t.path, t.follow),
            #[cfg(target_os = "linux")]
            Backend::Live { iface, .. } => format!("af-packet {iface}"),
        };
        f.debug_struct("CaptureSource")
            .field("backend", &backend)
            .field("flows", &self.table.flows.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::ether::MacAddr;
    use nettrace::tcp::TcpFlags;
    use nettrace::transaction::assign_seq;
    use nettrace::{ether, ipv4, tcp};
    use std::io::Write;
    use std::net::Ipv4Addr;
    use synthtraffic::wire::{episodes_pcap, wire_episode_set};

    fn tmp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("wirefront_capture_{name}_{}", std::process::id()))
    }

    fn pump_to_exhaustion(src: &mut CaptureSource, out: &mut Vec<HttpTransaction>) {
        for _ in 0..10_000 {
            match src.pump(out).expect("pump") {
                PumpOutcome::Exhausted => return,
                PumpOutcome::Progress | PumpOutcome::Idle => {}
            }
        }
        panic!("capture never exhausted");
    }

    /// Tails `bytes` from a file without follow, pumped to exhaustion
    /// and shut down, in offline extraction's order.
    fn tail_extract(bytes: &[u8], name: &str) -> (Vec<HttpTransaction>, IngestReport) {
        let path = tmp_path(name);
        std::fs::write(&path, bytes).unwrap();
        let mut src = CaptureSource::pcap_file(&path, false, CaptureConfig::default()).unwrap();
        let mut out = Vec::new();
        pump_to_exhaustion(&mut src, &mut out);
        src.shutdown(&mut out);
        std::fs::remove_file(&path).ok();
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        assign_seq(&mut out);
        (out, src.ingest_report())
    }

    /// The parity claim, held at the source level: tailing a pcap
    /// through the live flow table produces transactions and ingest
    /// accounting identical to the offline span pipeline over the same
    /// bytes.
    #[test]
    fn pcap_tail_matches_offline_extraction() {
        let episodes = wire_episode_set(21, 1, 1);
        let bytes = episodes_pcap(&episodes).expect("render pcap");
        let (out, wire_report) = tail_extract(&bytes, "parity.pcap");
        let mut report = IngestReport::new();
        let offline = nettrace::SpanPipeline::new().extract_lenient(&bytes, &mut report);
        assert_eq!(out.len(), offline.len(), "transaction count");
        assert!(!out.is_empty());
        for (wire, off) in out.iter().zip(&offline) {
            assert_eq!(format!("{wire:?}"), format!("{off:?}"));
        }
        assert_eq!(wire_report, report, "ingest accounting");
    }

    /// A capture whose last record is cut short ends the tail like it
    /// ends offline reading: exhausted, with the partial record counted.
    #[test]
    fn truncated_capture_exhausts_and_counts_the_partial_record() {
        let bytes = episodes_pcap(&wire_episode_set(24, 1, 1)).expect("render pcap");
        let cut = &bytes[..bytes.len() - 500];
        let (out, wire_report) = tail_extract(cut, "cut.pcap");
        let mut report = IngestReport::new();
        let offline = nettrace::SpanPipeline::new().extract_lenient(cut, &mut report);
        assert_eq!((report.records_dropped, report.capture_truncated), (1, true));
        assert_eq!(wire_report, report);
        assert_eq!(out, offline);
    }

    /// Re-encodes a little-endian microsecond capture with `magic`
    /// written in the chosen byte order (nanosecond magics scale the
    /// sub-second field). `damage` cuts the file mid-record or splices
    /// in a record header with an oversized capture length.
    fn reencode(bytes: &[u8], magic: u32, big_endian: bool, damage: &str) -> Vec<u8> {
        let word = |v: u32| if big_endian { v.to_be_bytes() } else { v.to_le_bytes() };
        let le = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut out = word(magic).to_vec();
        let half =
            |v: u32| if big_endian { (v as u16).to_be_bytes() } else { (v as u16).to_le_bytes() };
        out.extend_from_slice(&half(2));
        out.extend_from_slice(&half(4));
        for at in [8, 12, 16, 20] {
            out.extend_from_slice(&word(le(at)));
        }
        let scale = if magic == pcap::MAGIC_NSEC { 1000 } else { 1 };
        let (mut at, mut records) = (pcap::GLOBAL_HEADER_LEN, 0);
        while at < bytes.len() {
            if damage == "caplen" && records == 40 {
                out.extend_from_slice(&[0; 8]);
                out.extend_from_slice(&word(pcap::MAX_CAPTURE_LEN + 1));
                out.extend_from_slice(&[0; 4]);
            }
            let caplen = le(at + 8) as usize;
            for v in [le(at), le(at + 4) * scale, le(at + 8), le(at + 12)] {
                out.extend_from_slice(&word(v));
            }
            out.extend_from_slice(&bytes[at + 16..at + 16 + caplen]);
            at += 16 + caplen;
            records += 1;
        }
        if damage == "cut" {
            out.truncate(out.len() - 7);
        }
        out
    }

    /// Both paths accept the same classic captures — either byte order,
    /// either timestamp resolution — and degrade identically when one
    /// is cut short or carries a corrupt record length.
    #[test]
    fn tail_and_offline_accept_the_same_captures() {
        let clean = episodes_pcap(&wire_episode_set(23, 1, 1)).expect("render pcap");
        let formats =
            [(pcap::MAGIC_USEC, false), (pcap::MAGIC_USEC, true), (pcap::MAGIC_NSEC, false)];
        for (magic, big_endian) in formats {
            for damage in ["clean", "cut", "caplen"] {
                let what = format!("magic {magic:#x} big-endian {big_endian} {damage}");
                let bytes = reencode(&clean, magic, big_endian, damage);
                let (out, wire_report) = tail_extract(&bytes, "format.pcap");
                let mut report = IngestReport::new();
                let offline = nettrace::SpanPipeline::new().extract_lenient(&bytes, &mut report);
                assert_eq!(wire_report, report, "{what}");
                assert_eq!(out, offline, "{what}");
                assert!(!offline.is_empty(), "{what}");
                assert_eq!(report.has_loss(), damage != "clean", "{what}: {report}");
            }
        }
    }

    /// `tail -f` semantics: a record split at the end of file is
    /// retried once the writer appends the rest.
    #[test]
    fn tail_retries_partial_records_across_appends() {
        let episodes = wire_episode_set(22, 1, 0);
        let bytes = episodes_pcap(&episodes).expect("render pcap");
        let split = pcap::GLOBAL_HEADER_LEN + 8; // mid first record header
        let path = tmp_path("tail.pcap");
        std::fs::write(&path, &bytes[..split]).unwrap();

        let mut src = CaptureSource::pcap_file(&path, true, CaptureConfig::default()).unwrap();
        let mut out = Vec::new();
        for _ in 0..10 {
            assert_ne!(src.pump(&mut out).expect("pump"), PumpOutcome::Exhausted);
        }
        assert!(out.is_empty(), "no transaction can exist yet");

        let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(&bytes[split..]).unwrap();
        drop(f);
        // Follow mode never exhausts; pump until quiet.
        let mut idle = 0;
        while idle < 5 {
            match src.pump(&mut out).expect("pump") {
                PumpOutcome::Progress => idle = 0,
                _ => idle += 1,
            }
        }
        src.shutdown(&mut out);

        let mut report = IngestReport::new();
        let offline = nettrace::SpanPipeline::new().extract_lenient(&bytes, &mut report);
        assert_eq!(out.len(), offline.len());
        std::fs::remove_file(&path).ok();
    }

    fn frame(
        src: (Ipv4Addr, u16),
        dst: (Ipv4Addr, u16),
        seq: u32,
        flags: TcpFlags,
        payload: &[u8],
    ) -> Vec<u8> {
        let t = tcp::build(src.1, dst.1, seq, 0, flags, payload);
        let ip = ipv4::build(src.0, dst.0, ipv4::PROTO_TCP, 7, &t);
        ether::build(MacAddr([1; 6]), MacAddr([2; 6]), ether::ETHERTYPE_IPV4, &ip)
    }

    fn empty_source(config: CaptureConfig) -> CaptureSource {
        let path = tmp_path("empty.pcap");
        std::fs::write(&path, b"").unwrap();
        let src = CaptureSource::pcap_file(&path, true, config).unwrap();
        std::fs::remove_file(&path).ok(); // the open handle keeps it readable
        src
    }

    /// Segments delivered out of order still reassemble: the bounded
    /// OOO buffer holds the future segment until the gap fills. A flow
    /// whose FINs leave no bytes missing is reaped at its last FIN; one
    /// whose FINs lie past the data (bytes lost before them) is reaped
    /// after [`MAX_OOO_SEGMENTS`] further frames, flushing what it holds.
    #[test]
    fn out_of_order_segments_reassemble() {
        let client = (Ipv4Addr::new(10, 0, 0, 5), 30001u16);
        let server = (Ipv4Addr::new(93, 0, 0, 1), 80u16);
        let req = b"GET /x HTTP/1.1\r\nHost: ooo.test\r\n\r\n";
        let (a, b) = req.split_at(10);
        let resp = b"HTTP/1.1 200 X\r\nContent-Length: 0\r\n\r\n";
        let ends = (101 + req.len() as u32, 500 + resp.len() as u32);

        for (fins, wait) in [(ends, 0), ((200, 600), MAX_OOO_SEGMENTS)] {
            let mut src = empty_source(CaptureConfig::default());
            let mut out = Vec::new();
            let table = &mut src.table;
            table.handle_frame(1.0, &frame(client, server, 100, TcpFlags::syn(), &[]), &mut out);
            // Second chunk first: must wait in the OOO buffer.
            let seq = 101 + a.len() as u32;
            table.handle_frame(1.1, &frame(client, server, seq, TcpFlags::data(), b), &mut out);
            assert!(out.is_empty());
            table.handle_frame(1.2, &frame(client, server, 101, TcpFlags::data(), a), &mut out);
            table.handle_frame(2.0, &frame(server, client, 500, TcpFlags::data(), resp), &mut out);
            table.handle_frame(2.1, &frame(client, server, fins.0, TcpFlags::fin(), &[]), &mut out);
            table.handle_frame(2.2, &frame(server, client, fins.1, TcpFlags::fin(), &[]), &mut out);
            // Unrelated traffic: non-TCP frames count as frames too.
            let junk = ether::build(MacAddr([1; 6]), MacAddr([2; 6]), 0x86dd, &[0; 40]);
            for i in 0..wait {
                assert_eq!(src.active_flows(), 1, "reaped {i} frames after its FINs");
                src.table.handle_frame(3.0, &junk, &mut out);
            }

            assert_eq!(src.active_flows(), 0, "finished flow was reaped");
            assert_eq!(out.len(), 1, "one request/response pair, one transaction");
            assert_eq!(out[0].host, "ooo.test");
            assert_eq!(out[0].status, 200);
            assert_eq!(src.stats().connections, 1);
            // A segment arriving after the reaping is absorbed and counted.
            let late = frame(server, client, 590, TcpFlags::data(), b"late");
            src.table.handle_frame(4.0, &late, &mut out);
            assert_eq!((out.len(), src.active_flows(), src.stats().source_drops), (1, 0, 1));
        }
    }

    /// A file that is not a classic capture (here pcapng, the dumpcap
    /// default) fails the tail instead of being skipped as noise.
    #[test]
    fn unrecognised_capture_format_is_an_error() {
        let mut pcapng = vec![0x0a, 0x0d, 0x0d, 0x0a, 28, 0, 0, 0, 0x4d, 0x3c, 0x2b, 0x1a];
        pcapng.resize(64, 0);
        for follow in [false, true] {
            let path = tmp_path("format.pcapng");
            std::fs::write(&path, &pcapng).unwrap();
            let mut src =
                CaptureSource::pcap_file(&path, follow, CaptureConfig::default()).unwrap();
            let err = src.pump(&mut Vec::new()).expect_err("pcapng is not classic pcap");
            assert!(matches!(err, Error::BadPcapMagic(0x0a0d_0d0a)), "{err:?}");
            std::fs::remove_file(&path).ok();
        }
    }

    /// The closed-flow memory forgets its oldest entries first, so the
    /// trailing ACK of a flow that closed just before the memory filled
    /// is still absorbed.
    #[test]
    fn closed_flow_memory_forgets_the_oldest_first() {
        let server = (Ipv4Addr::new(93, 0, 0, 4), 80u16);
        let mut src = empty_source(CaptureConfig::default());
        let mut out = Vec::new();
        let client = |i: usize| (Ipv4Addr::from(0x0a00_0000 + i as u32), 40000u16);
        for i in 0..=CLOSED_FLOWS_REMEMBERED {
            for (from, to) in [(client(i), server), (server, client(i))] {
                let fin = frame(from, to, 7, TcpFlags::fin(), &[]);
                src.table.handle_frame(1.0, &fin, &mut out);
            }
            if let Some(prev) = i.checked_sub(1) {
                let ack = frame(client(prev), server, 8, TcpFlags::data(), &[]);
                src.table.handle_frame(1.0, &ack, &mut out);
            }
            assert_eq!(src.active_flows(), 0, "a late ACK before flow {i} opened a flow");
        }
        assert_eq!(src.stats().connections, CLOSED_FLOWS_REMEMBERED as u64 + 1);
        // The first flow was forgotten: its late ACK opens a new one.
        src.table.handle_frame(2.0, &frame(client(0), server, 8, TcpFlags::data(), &[]), &mut out);
        assert_eq!(src.active_flows(), 1);
    }

    /// Retransmitted overlap is trimmed, not re-delivered.
    #[test]
    fn retransmission_overlap_is_trimmed() {
        let client = (Ipv4Addr::new(10, 0, 0, 6), 30002u16);
        let server = (Ipv4Addr::new(93, 0, 0, 2), 80u16);
        let req = b"GET /r HTTP/1.1\r\nHost: dup.test\r\n\r\n";
        let mut src = empty_source(CaptureConfig::default());
        let mut out = Vec::new();
        src.table.handle_frame(1.0, &frame(client, server, 100, TcpFlags::syn(), &[]), &mut out);
        src.table.handle_frame(1.1, &frame(client, server, 101, TcpFlags::data(), req), &mut out);
        // Full retransmission: zero new bytes.
        let before = src.stats().bytes_in;
        src.table.handle_frame(1.2, &frame(client, server, 101, TcpFlags::data(), req), &mut out);
        assert_eq!(src.stats().bytes_in, before, "retransmission added bytes");
        src.shutdown(&mut out);
        assert_eq!(out.len(), 1, "one unanswered request");
        assert_eq!(out[0].status, 0);
        assert_eq!(out[0].host, "dup.test");
    }

    /// The BPF-style port filter keeps non-web flows out of the flow
    /// table entirely.
    #[test]
    fn port_filter_excludes_other_flows() {
        let client = (Ipv4Addr::new(10, 0, 0, 7), 30003u16);
        let other = (Ipv4Addr::new(93, 0, 0, 3), 9999u16);
        let mut src = empty_source(CaptureConfig::default());
        let mut out = Vec::new();
        src.table.handle_frame(1.0, &frame(client, other, 1, TcpFlags::syn(), &[]), &mut out);
        src.table.handle_frame(1.1, &frame(client, other, 2, TcpFlags::data(), b"hello"), &mut out);
        assert_eq!(src.active_flows(), 0);
        assert_eq!(src.stats().connections, 0);
        assert!(out.is_empty());
    }
}
