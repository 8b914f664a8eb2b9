//! TCP stream reassembly.
//!
//! Segments are grouped per unidirectional flow (source → destination
//! endpoint pair), ordered by sequence number relative to the flow's initial
//! sequence number, de-duplicated on retransmission, and flattened into a
//! contiguous byte stream. Each stream remembers the arrival timestamp of
//! every byte range so downstream consumers (the HTTP transaction extractor)
//! can attach timestamps to parsed messages.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::ether::{EtherFrame, ETHERTYPE_IPV4};
use crate::ingest::IngestReport;
use crate::ipv4::{Ipv4Packet, PROTO_TCP};
use crate::tcp::TcpSegment;

/// Out-of-order segments a live direction holds before it stops waiting
/// for the missing bytes: the live reorder window (see [`LiveStream`]).
pub const MAX_OOO_SEGMENTS: usize = 64;

/// The Ethernet → IPv4 → TCP decode step every ingest path shares: the
/// segment and the flow it travels on, or `None` with the frame counted
/// in `report` as undecodable or as not TCP over IPv4.
pub fn decode_frame<'a>(
    frame: &'a [u8],
    report: &mut IngestReport,
) -> Option<(FlowKey, TcpSegment<'a>)> {
    let Ok(eth) = EtherFrame::parse(frame) else {
        report.packets_dropped_decode += 1;
        return None;
    };
    if eth.ethertype != ETHERTYPE_IPV4 {
        report.packets_non_tcp += 1;
        return None;
    }
    let Ok(ip) = Ipv4Packet::parse(eth.payload) else {
        report.packets_dropped_decode += 1;
        return None;
    };
    if ip.protocol != PROTO_TCP {
        report.packets_non_tcp += 1;
        return None;
    }
    let Ok(tcp) = TcpSegment::parse(ip.payload) else {
        report.packets_dropped_decode += 1;
        return None;
    };
    let key =
        FlowKey::new(Endpoint::new(ip.src, tcp.src_port), Endpoint::new(ip.dst, tcp.dst_port));
    Some((key, tcp))
}

/// One endpoint of a TCP flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Endpoint {
    /// IPv4 address.
    pub addr: Ipv4Addr,
    /// TCP port.
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint from an address and port.
    pub fn new(addr: Ipv4Addr, port: u16) -> Self {
        Endpoint { addr, port }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.addr, self.port)
    }
}

/// A unidirectional flow key (sender → receiver).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowKey {
    /// Sending endpoint.
    pub src: Endpoint,
    /// Receiving endpoint.
    pub dst: Endpoint,
}

impl FlowKey {
    /// Creates a flow key.
    pub fn new(src: Endpoint, dst: Endpoint) -> Self {
        FlowKey { src, dst }
    }

    /// The same connection viewed from the opposite direction.
    pub fn reversed(&self) -> FlowKey {
        FlowKey { src: self.dst, dst: self.src }
    }

    /// A direction-independent identifier for the connection: the smaller
    /// endpoint (by address, then port) first.
    pub fn connection_id(&self) -> (Endpoint, Endpoint) {
        if self.src <= self.dst {
            (self.src, self.dst)
        } else {
            (self.dst, self.src)
        }
    }
}

/// A fully reassembled unidirectional byte stream.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The flow this stream belongs to.
    pub key: FlowKey,
    /// Reassembled application bytes in sequence order.
    pub data: Vec<u8>,
    /// `(byte_offset, timestamp)` markers: bytes at `offset..next_offset`
    /// arrived at `timestamp`. Sorted by offset.
    pub timeline: Vec<(usize, f64)>,
    /// Whether a FIN or RST was observed on this direction.
    pub closed: bool,
}

impl Stream {
    /// Arrival timestamp of the byte at `offset` (timestamp of the segment
    /// that carried it). Falls back to the last known timestamp for offsets
    /// past the end.
    pub fn timestamp_at(&self, offset: usize) -> f64 {
        self.as_view().timestamp_at(offset)
    }

    /// This stream as a borrowed [`StreamView`], the common currency the
    /// transaction extractor parses (shared with the zero-copy path).
    pub fn as_view(&self) -> StreamView<'_> {
        StreamView {
            key: self.key,
            data: &self.data,
            timeline: &self.timeline,
            closed: self.closed,
        }
    }
}

/// A borrowed view of one reassembled unidirectional stream.
///
/// Both reassembly paths produce this shape: [`Stream::as_view`] borrows
/// from the owned copying-path stream, and [`StreamBuf::view`] borrows
/// from the capture arena or the shared gather buffer on the zero-copy
/// path. The HTTP transaction extractor parses views, so the two paths
/// share one parser by construction.
#[derive(Debug, Clone, Copy)]
pub struct StreamView<'a> {
    /// The flow this stream belongs to.
    pub key: FlowKey,
    /// Reassembled application bytes in sequence order.
    pub data: &'a [u8],
    /// `(byte_offset, timestamp)` markers, sorted by offset.
    pub timeline: &'a [(usize, f64)],
    /// Whether a FIN or RST was observed on this direction.
    pub closed: bool,
}

impl StreamView<'_> {
    /// Arrival timestamp of the byte at `offset`; see
    /// [`Stream::timestamp_at`].
    pub fn timestamp_at(&self, offset: usize) -> f64 {
        timestamp_at(self.timeline, offset)
    }
}

/// Looks `offset` up in a sorted `(offset, ts)` timeline: the entry at
/// or before it, else the first entry, else 0.
pub(crate) fn timestamp_at(timeline: &[(usize, f64)], offset: usize) -> f64 {
    match timeline.binary_search_by(|(o, _)| o.cmp(&offset)) {
        Ok(i) => timeline[i].1,
        Err(0) => timeline.first().map_or(0.0, |&(_, t)| t),
        Err(i) => timeline[i - 1].1,
    }
}

#[derive(Debug, Default)]
struct FlowState {
    /// Relative sequence offset → (timestamp, bytes). Keyed by offset from
    /// the initial sequence number.
    chunks: BTreeMap<u64, (f64, Vec<u8>)>,
    /// Initial sequence number (sequence of SYN, or first data byte when no
    /// SYN was captured).
    isn: Option<u32>,
    /// Whether the ISN came from a SYN (data then starts at `isn + 1`).
    isn_from_syn: bool,
    closed: bool,
}

impl FlowState {
    fn relative(&self, seq: u32) -> u64 {
        let isn = self.isn.expect("isn set before relative()");
        let base = if self.isn_from_syn { isn.wrapping_add(1) } else { isn };
        seq.wrapping_sub(base) as u64
    }
}

/// Reassembles TCP segments into per-flow byte streams.
///
/// Feed every segment of a capture with [`StreamReassembler::push`], then
/// call [`StreamReassembler::into_streams`].
#[derive(Debug, Default)]
pub struct StreamReassembler {
    flows: HashMap<FlowKey, FlowState>,
    order: Vec<FlowKey>,
}

impl StreamReassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        StreamReassembler::default()
    }

    /// Adds one segment observed at time `ts` on flow `key`.
    ///
    /// Retransmitted bytes (same relative offset) keep their first copy.
    /// Segments arriving before any SYN establish the base offset from their
    /// own sequence number.
    pub fn push(&mut self, ts: f64, key: FlowKey, seg: &TcpSegment<'_>) {
        let state = match self.flows.get_mut(&key) {
            Some(s) => s,
            None => {
                self.order.push(key);
                self.flows.entry(key).or_default()
            }
        };
        if seg.flags.syn {
            if let (Some(old_isn), false) = (state.isn, state.isn_from_syn) {
                // Data outran the SYN (reordered capture): the buffered
                // chunks are keyed to a provisional base taken from the
                // first data segment. Re-key them to the SYN's base so
                // they line up with segments still to come.
                let new_base = seg.seq.wrapping_add(1);
                let diff = old_isn.wrapping_sub(new_base) as i32;
                let old = std::mem::take(&mut state.chunks);
                if diff >= 0 {
                    let shift = diff as u64;
                    state.chunks = old.into_iter().map(|(k, v)| (k + shift, v)).collect();
                }
                // diff < 0: the buffered data claimed to precede the
                // SYN — stale retransmission, dropped (same rule as
                // post-SYN segments below).
            }
            state.isn = Some(seg.seq);
            state.isn_from_syn = true;
        }
        if seg.flags.fin || seg.flags.rst {
            state.closed = true;
        }
        if seg.payload.is_empty() {
            return;
        }
        if state.isn.is_none() {
            state.isn = Some(seg.seq);
            state.isn_from_syn = false;
        }
        let rel_signed = {
            let isn = state.isn.expect("isn just ensured");
            let base = if state.isn_from_syn { isn.wrapping_add(1) } else { isn };
            seg.seq.wrapping_sub(base) as i32
        };
        if rel_signed < 0 {
            if state.isn_from_syn {
                // Data claiming to precede the SYN: stale retransmission.
                return;
            }
            // An out-of-order segment arrived below the provisional base
            // (the base was set from a later segment). Rebase the flow.
            let shift = (-(rel_signed as i64)) as u64;
            let old = std::mem::take(&mut state.chunks);
            state.chunks = old.into_iter().map(|(k, v)| (k + shift, v)).collect();
            state.isn = Some(seg.seq);
        }
        let rel = state.relative(seg.seq);
        state.chunks.entry(rel).or_insert_with(|| (ts, seg.payload.to_vec()));
    }

    /// Finishes reassembly, returning one [`Stream`] per flow in first-seen
    /// order. Gaps (lost segments) are skipped: later bytes are appended
    /// directly after earlier ones, which matches libpcap-based HTTP tooling
    /// behaviour on lossy captures. Overlapping retransmissions keep the
    /// earliest copy of each byte.
    pub fn into_streams(self) -> Vec<Stream> {
        let mut gaps = 0;
        self.into_streams_counting(&mut gaps)
    }

    /// Like [`StreamReassembler::into_streams`], but counts every
    /// skipped sequence discontinuity into `gaps` so lenient ingest can
    /// report reassembly stalls instead of papering over them.
    pub fn into_streams_counting(self, gaps: &mut u64) -> Vec<Stream> {
        let mut flows = self.flows;
        self.order
            .into_iter()
            .map(|key| {
                let state = flows.remove(&key).expect("flow recorded in order");
                let mut data = Vec::new();
                let mut timeline = Vec::new();
                let mut next_rel = 0u64;
                for (rel, (ts, bytes)) in state.chunks {
                    // A chunk starting past the write cursor means the
                    // bytes in between were never captured (the first
                    // chunk sits at rel 0 by construction unless a SYN
                    // pinned the base and the opening data was lost).
                    if rel > next_rel {
                        *gaps += 1;
                    }
                    let bytes: &[u8] = if rel < next_rel {
                        let overlap = (next_rel - rel) as usize;
                        if overlap >= bytes.len() {
                            continue; // fully retransmitted
                        }
                        &bytes[overlap..]
                    } else {
                        &bytes[..]
                    };
                    timeline.push((data.len(), ts));
                    data.extend_from_slice(bytes);
                    next_rel = rel.max(next_rel) + bytes.len() as u64;
                }
                Stream { key, data, timeline, closed: state.closed }
            })
            .collect()
    }
}

/// How a direction's buffered data must move when its base changes.
#[derive(Debug, Clone, Copy)]
enum Rekey {
    Keep,
    /// Shift every buffered offset up by this much.
    Shift(u64),
    /// Drop everything buffered: it claimed to precede the SYN.
    Clear,
}

/// One direction's sequence base: the rule set that maps TCP sequence
/// numbers to stream offsets, shared by offline span reassembly and live
/// capture.
///
/// * A SYN pins the base at `seq + 1`. Data buffered before it against a
///   provisional base is re-keyed to the SYN's base, or dropped when it
///   claims to precede the SYN (a stale retransmission).
/// * Data seen before any SYN sets a provisional base at its own
///   sequence number; data arriving below it rebases the direction.
/// * Data below a pinned base is stale and dropped.
#[derive(Debug, Default, Clone, Copy)]
struct SeqBase {
    isn: Option<u32>,
    /// Whether `isn` is a SYN's sequence number (data starts at `isn + 1`).
    from_syn: bool,
    /// Data below the base is stale rather than a reason to rebase: set
    /// by a SYN, or by a live direction that has started delivering.
    pinned: bool,
}

impl SeqBase {
    fn base(&self) -> Option<u32> {
        self.isn.map(|isn| if self.from_syn { isn.wrapping_add(1) } else { isn })
    }

    fn syn(&mut self, seq: u32) -> Rekey {
        let rekey = match (self.isn, self.from_syn) {
            (Some(old), false) => match old.wrapping_sub(seq.wrapping_add(1)) as i32 {
                diff if diff >= 0 => Rekey::Shift(diff as u64),
                _ => Rekey::Clear,
            },
            _ => Rekey::Keep,
        };
        self.isn = Some(seq);
        self.from_syn = true;
        self.pinned = true;
        rekey
    }

    /// The stream offset of data at `seq`, after applying the returned
    /// re-key to everything buffered; `None` when the data is stale.
    fn place(&mut self, seq: u32) -> Option<(u64, Rekey)> {
        self.isn.get_or_insert(seq);
        let rel = seq.wrapping_sub(self.base().expect("base just set")) as i32;
        if rel >= 0 {
            return Some((rel as u64, Rekey::Keep));
        }
        if self.pinned {
            return None;
        }
        self.isn = Some(seq);
        Some((0, Rekey::Shift(-(rel as i64) as u64)))
    }
}

/// The gather cursor: walks one direction's chunks in `(offset, arrival)`
/// order and yields the bytes each adds to the stream. The first arrival
/// at an offset wins, later bytes overlapping earlier ones are trimmed,
/// and a chunk starting past the cursor skips the missing bytes as one
/// counted gap — the same walk for offline gather, live delivery and
/// live flush.
#[derive(Debug, Clone, Copy)]
struct Cursor {
    next: u64,
    prev: u64,
}

impl Default for Cursor {
    fn default() -> Self {
        Cursor { next: 0, prev: u64::MAX }
    }
}

impl Cursor {
    fn take<'d>(&mut self, rel: u64, data: &'d [u8], gaps: &mut u64) -> Option<&'d [u8]> {
        if rel == self.prev {
            return None; // later arrival at a taken offset: dropped wholly
        }
        self.prev = rel;
        if rel > self.next {
            *gaps += 1;
        }
        let skip = self.next.saturating_sub(rel) as usize;
        let bytes = data.get(skip..).filter(|b| !b.is_empty())?;
        self.next = rel + data.len() as u64;
        Some(bytes)
    }
}

/// One buffered TCP chunk on the zero-copy path: payload bytes as a
/// range into the capture arena rather than an owned copy.
#[derive(Debug, Clone)]
struct SpanChunk {
    /// Offset from the flow base (mutable: rebases shift it).
    rel: u64,
    /// Arrival order within the flow: the gather sort's tie-break, so a
    /// retransmission landing on an already-buffered offset loses to the
    /// first arrival.
    order: u32,
    ts: f64,
    range: Range<usize>,
}

#[derive(Debug, Default)]
struct SpanFlowState {
    chunks: Vec<SpanChunk>,
    next_order: u32,
    base: SeqBase,
    closed: bool,
}

/// Where one gathered stream's bytes live.
#[derive(Debug)]
enum StreamSrc {
    /// A single contiguous span: the stream is read straight out of the
    /// capture arena, no bytes materialized.
    Arena(Range<usize>),
    /// Multiple chunks (or an overlap/retransmit conflict) forced a
    /// gather copy into [`StreamBuf::data`].
    Gathered(Range<usize>),
}

#[derive(Debug)]
struct StreamDesc {
    key: FlowKey,
    src: StreamSrc,
    timeline: Range<usize>,
    closed: bool,
}

/// Reused output buffer for [`SpanReassembler::gather_streams`]: all
/// gathered stream bytes, timelines, and descriptors live in three flat
/// vectors whose capacity survives across captures, so steady-state
/// reassembly allocates nothing.
#[derive(Debug, Default)]
pub struct StreamBuf {
    data: Vec<u8>,
    timeline: Vec<(usize, f64)>,
    streams: Vec<StreamDesc>,
}

impl StreamBuf {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        StreamBuf::default()
    }

    /// Discards all streams, keeping allocated capacity.
    pub fn clear(&mut self) {
        self.data.clear();
        self.timeline.clear();
        self.streams.clear();
    }

    /// Number of streams held.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether no streams are held.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }

    /// Borrows stream `i`. `arena` must be the capture the spans were
    /// pushed from (single-span streams read straight out of it).
    pub fn view<'a>(&'a self, arena: &'a [u8], i: usize) -> StreamView<'a> {
        let d = &self.streams[i];
        let data = match &d.src {
            StreamSrc::Arena(r) => &arena[r.clone()],
            StreamSrc::Gathered(r) => &self.data[r.clone()],
        };
        StreamView { key: d.key, data, timeline: &self.timeline[d.timeline.clone()], closed: d.closed }
    }

    /// Iterates all stream views in first-seen flow order.
    pub fn views<'a>(&'a self, arena: &'a [u8]) -> impl Iterator<Item = StreamView<'a>> {
        (0..self.streams.len()).map(move |i| self.view(arena, i))
    }
}

/// Zero-copy sibling of [`StreamReassembler`]: buffers `(ts, span)`
/// chunks instead of copied payloads, and materializes bytes only when a
/// flow has more than one chunk (gather copy) — a single-segment stream
/// stays a borrowed arena span end to end.
///
/// Sequence rules ([`SeqBase`]) and the gather walk ([`Cursor`]) are the
/// ones [`LiveStream`] runs on the wire. Ordering, rebase, retransmission,
/// overlap, and gap semantics are byte-identical to the copying path
/// (asserted by the equivalence tests below and the fault-injection
/// proptest): the copying path's `BTreeMap` insert-time dedup becomes a
/// `(rel, arrival order)` sort plus a same-`rel` skip at gather time.
///
/// The reassembler and its [`StreamBuf`] are designed for reuse:
/// [`SpanReassembler::gather_streams`] drains every flow, reclaims chunk
/// vectors into an internal pool, and leaves the map's capacity in place,
/// so a warm reassembler processes a capture without allocating.
#[derive(Debug, Default)]
pub struct SpanReassembler {
    flows: HashMap<FlowKey, SpanFlowState>,
    order: Vec<FlowKey>,
    pool: Vec<Vec<SpanChunk>>,
}

impl SpanReassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        SpanReassembler::default()
    }

    /// Adds one segment observed at time `ts` on flow `key`, with
    /// `payload` locating `seg.payload` inside the capture arena
    /// (callers recover it with [`crate::arena::subslice_range`]).
    ///
    /// Semantics match [`StreamReassembler::push`] exactly.
    pub fn push_span(
        &mut self,
        ts: f64,
        key: FlowKey,
        seg: &TcpSegment<'_>,
        payload: Range<usize>,
    ) {
        debug_assert_eq!(payload.len(), seg.payload.len());
        let state = match self.flows.get_mut(&key) {
            Some(s) => s,
            None => {
                self.order.push(key);
                let state = self.flows.entry(key).or_default();
                if let Some(reclaimed) = self.pool.pop() {
                    state.chunks = reclaimed;
                }
                state
            }
        };
        if seg.flags.syn {
            rekey(&mut state.chunks, state.base.syn(seg.seq), |c| &mut c.rel);
        }
        if seg.flags.fin || seg.flags.rst {
            state.closed = true;
        }
        if seg.payload.is_empty() {
            return;
        }
        let Some((rel, shift)) = state.base.place(seg.seq) else { return };
        rekey(&mut state.chunks, shift, |c| &mut c.rel);
        let order = state.next_order;
        state.next_order += 1;
        state.chunks.push(SpanChunk { rel, order, ts, range: payload });
    }

    /// Finishes reassembly into `buf` (cleared first), one stream per
    /// flow in first-seen order, counting skipped discontinuities into
    /// `gaps` — the zero-copy analogue of
    /// [`StreamReassembler::into_streams_counting`].
    ///
    /// Drains all flow state and reclaims its buffers, leaving the
    /// reassembler warm for the next capture.
    pub fn gather_streams(&mut self, arena: &[u8], gaps: &mut u64, buf: &mut StreamBuf) {
        buf.clear();
        let mut order = std::mem::take(&mut self.order);
        for &key in &order {
            let mut state = self.flows.remove(&key).expect("flow recorded in order");
            state.chunks.sort_unstable_by_key(|c| (c.rel, c.order));
            let tl_start = buf.timeline.len();
            let src = if let [c] = state.chunks.as_slice() {
                // Fast path: one chunk — the stream IS its arena span.
                if c.rel > 0 {
                    *gaps += 1; // opening bytes lost below a pinned base
                }
                buf.timeline.push((0, c.ts));
                StreamSrc::Arena(c.range.clone())
            } else {
                let data_start = buf.data.len();
                let mut cursor = Cursor::default();
                for c in &state.chunks {
                    if let Some(bytes) = cursor.take(c.rel, &arena[c.range.clone()], gaps) {
                        buf.timeline.push((buf.data.len() - data_start, c.ts));
                        buf.data.extend_from_slice(bytes);
                    }
                }
                StreamSrc::Gathered(data_start..buf.data.len())
            };
            let timeline = tl_start..buf.timeline.len();
            buf.streams.push(StreamDesc { key, src, timeline, closed: state.closed });
            state.chunks.clear();
            self.pool.push(std::mem::take(&mut state.chunks));
        }
        order.clear();
        self.order = order;
    }
}

/// Applies a [`Rekey`] to buffered chunks, reached through `rel`.
fn rekey<C>(chunks: &mut Vec<C>, how: Rekey, rel: impl Fn(&mut C) -> &mut u64) {
    match how {
        Rekey::Keep => {}
        Rekey::Shift(by) => chunks.iter_mut().for_each(|c| *rel(c) += by),
        Rekey::Clear => chunks.clear(),
    }
}

/// A segment a live direction holds until the bytes before it arrive.
#[derive(Debug)]
struct Held {
    rel: u64,
    ts: f64,
    data: Vec<u8>,
}

/// One direction of a live TCP flow: [`SpanReassembler`]'s sequence rules
/// and gather walk, run incrementally so contiguous bytes reach their
/// consumer as they arrive.
///
/// * Bytes are delivered once a SYN has pinned the base; until then a
///   direction holds what it sees, since earlier data could still move
///   the base. Once pinned, the base stays: a later SYN is ignored.
/// * Each delivered piece carries the arrival timestamp of the segment
///   it came from.
/// * Segments past a hole are held — at most [`MAX_OOO_SEGMENTS`] of
///   them. Past that the direction stops waiting exactly as the offline
///   gather would: it pins its base if no SYN did, then skips the hole
///   as one counted gap.
/// * [`LiveStream::flush`] (at close or shutdown) delivers whatever is
///   left with the same gather.
///
/// Bytes already delivered cannot be taken back, so the live stream
/// matches offline reassembly of the same segments except when a segment
/// arrives after the window moved past it or below a base the window
/// pinned, or when a second SYN with a new sequence number re-bases the
/// offline stream.
#[derive(Debug, Default)]
pub struct LiveStream {
    base: SeqBase,
    cursor: Cursor,
    /// Held segments in `(offset, arrival)` order.
    held: Vec<Held>,
    /// Sequence number just past a FIN or RST, once one is seen.
    end: Option<u32>,
}

impl LiveStream {
    /// Takes one segment of this direction seen at `ts`, passing every
    /// newly contiguous piece of stream to `deliver` and counting
    /// skipped holes into `gaps`.
    pub fn push(
        &mut self,
        ts: f64,
        seg: &TcpSegment<'_>,
        gaps: &mut u64,
        mut deliver: impl FnMut(f64, &[u8]),
    ) {
        if seg.flags.syn && !self.base.pinned {
            rekey(&mut self.held, self.base.syn(seg.seq), |h| &mut h.rel);
            self.deliver_ready(gaps, &mut deliver);
        }
        if seg.flags.fin || seg.flags.rst {
            self.end = Some(seg.seq.wrapping_add(seg.payload.len() as u32));
        }
        if !seg.payload.is_empty() {
            let Some((rel, how)) = self.base.place(seg.seq) else { return };
            rekey(&mut self.held, how, |h| &mut h.rel);
            if self.base.pinned && rel <= self.cursor.next {
                if let Some(bytes) = self.cursor.take(rel, seg.payload, gaps) {
                    deliver(ts, bytes);
                }
                self.deliver_ready(gaps, &mut deliver);
            } else {
                let at = self.held.partition_point(|h| h.rel <= rel);
                self.held.insert(at, Held { rel, ts, data: seg.payload.to_vec() });
            }
        }
        while self.held.len() > MAX_OOO_SEGMENTS {
            // Waited long enough: pin the base, skip the hole.
            self.base.pinned = true;
            let h = self.held.remove(0);
            if let Some(bytes) = self.cursor.take(h.rel, &h.data, gaps) {
                deliver(h.ts, bytes);
            }
            self.deliver_ready(gaps, &mut deliver);
        }
    }

    /// Delivers the held segments that no longer wait on a hole.
    fn deliver_ready(&mut self, gaps: &mut u64, deliver: &mut impl FnMut(f64, &[u8])) {
        if !self.base.pinned {
            return;
        }
        let mut ready = 0;
        for h in &self.held {
            if h.rel > self.cursor.next {
                break;
            }
            if let Some(bytes) = self.cursor.take(h.rel, &h.data, gaps) {
                deliver(h.ts, bytes);
            }
            ready += 1;
        }
        self.held.drain(..ready);
    }

    /// Delivers everything still held, skipping holes as counted gaps.
    pub fn flush(&mut self, gaps: &mut u64, mut deliver: impl FnMut(f64, &[u8])) {
        self.base.pinned = true;
        for h in std::mem::take(&mut self.held) {
            if let Some(bytes) = self.cursor.take(h.rel, &h.data, gaps) {
                deliver(h.ts, bytes);
            }
        }
    }

    /// Whether a FIN or RST has ended the direction.
    pub fn has_ended(&self) -> bool {
        self.end.is_some()
    }

    /// Whether the direction has ended (FIN or RST) and every byte up to
    /// that end is here, so nothing it could still receive would change
    /// the stream.
    pub fn is_complete(&self) -> bool {
        let Some(end) = self.end else { return false };
        let Some(base) = self.base.base() else { return true };
        let mut cursor = self.cursor;
        for h in &self.held {
            if h.rel > cursor.next {
                return false;
            }
            cursor.take(h.rel, &h.data, &mut 0);
        }
        i64::from(end.wrapping_sub(base) as i32) <= cursor.next as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{self, TcpFlags};

    fn key() -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 1), 40000),
            Endpoint::new(Ipv4Addr::new(93, 184, 216, 34), 80),
        )
    }

    fn push_data(r: &mut StreamReassembler, ts: f64, k: FlowKey, seq: u32, data: &[u8]) {
        let raw = tcp::build(k.src.port, k.dst.port, seq, 0, TcpFlags::data(), data);
        let seg = TcpSegment::parse(&raw).unwrap();
        r.push(ts, k, &seg);
    }

    #[test]
    fn in_order_segments_concatenate() {
        let mut r = StreamReassembler::new();
        push_data(&mut r, 1.0, key(), 100, b"hello ");
        push_data(&mut r, 2.0, key(), 106, b"world");
        let streams = r.into_streams();
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].data, b"hello world");
    }

    #[test]
    fn out_of_order_segments_are_sorted() {
        let mut r = StreamReassembler::new();
        push_data(&mut r, 2.0, key(), 106, b"world");
        push_data(&mut r, 1.0, key(), 100, b"hello ");
        assert_eq!(r.into_streams()[0].data, b"hello world");
    }

    #[test]
    fn syn_arriving_after_data_rebases_buffered_chunks() {
        // Multi-queue reordering can deliver data segments before the
        // SYN. The buffered bytes must be re-keyed to the SYN's base:
        // no false gap, no dropped bytes.
        let mut r = StreamReassembler::new();
        push_data(&mut r, 2.0, key(), 6400, b"world"); // second chunk, first to arrive
        let syn = tcp::build(key().src.port, key().dst.port, 4999, 0, TcpFlags::syn(), b"");
        r.push(1.0, key(), &TcpSegment::parse(&syn).unwrap());
        push_data(&mut r, 1.5, key(), 5000, &[b'x'; 1400]);
        let mut gaps = 0;
        let streams = r.into_streams_counting(&mut gaps);
        assert_eq!(gaps, 0, "reordering is not loss");
        assert_eq!(streams[0].data.len(), 1405);
        assert!(streams[0].data.ends_with(b"world"));
    }

    #[test]
    fn stale_data_below_a_late_syn_is_dropped() {
        // A segment below the SYN's base is a stale retransmission from
        // an earlier connection on the same 4-tuple; a late SYN must
        // discard it rather than splice it in.
        let mut r = StreamReassembler::new();
        push_data(&mut r, 1.0, key(), 100, b"stale");
        let syn = tcp::build(key().src.port, key().dst.port, 499, 0, TcpFlags::syn(), b"");
        r.push(2.0, key(), &TcpSegment::parse(&syn).unwrap());
        push_data(&mut r, 3.0, key(), 500, b"fresh");
        let mut gaps = 0;
        let streams = r.into_streams_counting(&mut gaps);
        assert_eq!(gaps, 0);
        assert_eq!(streams[0].data, b"fresh");
    }

    #[test]
    fn retransmissions_are_deduplicated() {
        let mut r = StreamReassembler::new();
        push_data(&mut r, 1.0, key(), 100, b"abc");
        push_data(&mut r, 2.0, key(), 100, b"abc");
        push_data(&mut r, 3.0, key(), 103, b"def");
        assert_eq!(r.into_streams()[0].data, b"abcdef");
    }

    #[test]
    fn partial_overlap_keeps_first_copy() {
        let mut r = StreamReassembler::new();
        push_data(&mut r, 1.0, key(), 100, b"abcd");
        push_data(&mut r, 2.0, key(), 102, b"CDEF");
        assert_eq!(r.into_streams()[0].data, b"abcdEF");
    }

    #[test]
    fn syn_consumes_one_sequence_number() {
        let mut r = StreamReassembler::new();
        let k = key();
        let syn = tcp::build(k.src.port, k.dst.port, 999, 0, TcpFlags::syn(), b"");
        r.push(0.5, k, &TcpSegment::parse(&syn).unwrap());
        push_data(&mut r, 1.0, k, 1000, b"data");
        let s = r.into_streams();
        assert_eq!(s[0].data, b"data");
        assert!(!s[0].closed);
    }

    #[test]
    fn fin_marks_stream_closed() {
        let mut r = StreamReassembler::new();
        let k = key();
        push_data(&mut r, 1.0, k, 1, b"x");
        let fin = tcp::build(k.src.port, k.dst.port, 2, 0, TcpFlags::fin(), b"");
        r.push(2.0, k, &TcpSegment::parse(&fin).unwrap());
        assert!(r.into_streams()[0].closed);
    }

    #[test]
    fn directions_are_separate_flows() {
        let mut r = StreamReassembler::new();
        push_data(&mut r, 1.0, key(), 1, b"request");
        push_data(&mut r, 2.0, key().reversed(), 1, b"response");
        let streams = r.into_streams();
        assert_eq!(streams.len(), 2);
        assert_eq!(streams[0].data, b"request");
        assert_eq!(streams[1].data, b"response");
        assert_eq!(streams[0].key.connection_id(), streams[1].key.connection_id());
    }

    #[test]
    fn timeline_maps_offsets_to_timestamps() {
        let mut r = StreamReassembler::new();
        push_data(&mut r, 1.0, key(), 100, b"aaaa");
        push_data(&mut r, 5.0, key(), 104, b"bbbb");
        let s = &r.into_streams()[0];
        assert_eq!(s.timestamp_at(0), 1.0);
        assert_eq!(s.timestamp_at(3), 1.0);
        assert_eq!(s.timestamp_at(4), 5.0);
        assert_eq!(s.timestamp_at(100), 5.0); // past-the-end falls back
    }

    #[test]
    fn gap_is_skipped_rather_than_stalling() {
        let mut r = StreamReassembler::new();
        push_data(&mut r, 1.0, key(), 100, b"abc");
        push_data(&mut r, 2.0, key(), 200, b"xyz");
        assert_eq!(r.into_streams()[0].data, b"abcxyz");
    }

    #[test]
    fn gaps_are_counted_per_discontinuity() {
        let mut r = StreamReassembler::new();
        push_data(&mut r, 1.0, key(), 100, b"abc"); // rel 0
        push_data(&mut r, 2.0, key(), 200, b"xyz"); // gap 1
        push_data(&mut r, 3.0, key(), 300, b"pqr"); // gap 2
        push_data(&mut r, 4.0, key().reversed(), 1, b"clean");
        let mut gaps = 0;
        let streams = r.into_streams_counting(&mut gaps);
        assert_eq!(streams.len(), 2);
        assert_eq!(gaps, 2);
    }

    #[test]
    fn contiguous_and_retransmitted_streams_count_no_gaps() {
        let mut r = StreamReassembler::new();
        push_data(&mut r, 1.0, key(), 100, b"abc");
        push_data(&mut r, 2.0, key(), 100, b"abc"); // retransmit
        push_data(&mut r, 3.0, key(), 103, b"def");
        let mut gaps = 0;
        r.into_streams_counting(&mut gaps);
        assert_eq!(gaps, 0);
    }

    /// One scripted segment: `(ts, key, seq, flags, payload)`.
    type Scripted = (f64, FlowKey, u32, TcpFlags, &'static [u8]);

    /// Runs the same script through both reassemblers and asserts the
    /// resulting streams, timelines, closed flags, and gap counts are
    /// identical. The span path parses segments borrowed from a single
    /// arena and recovers payload offsets via `subslice_range`, exactly
    /// like the production pipeline.
    fn assert_paths_equivalent(script: &[Scripted]) {
        // Copying path.
        let mut legacy = StreamReassembler::new();
        for &(ts, k, seq, flags, data) in script {
            let raw = tcp::build(k.src.port, k.dst.port, seq, 0, flags, data);
            legacy.push(ts, k, &TcpSegment::parse(&raw).unwrap());
        }
        let mut legacy_gaps = 0;
        let streams = legacy.into_streams_counting(&mut legacy_gaps);

        // Span path: all segments concatenated into one arena.
        let mut arena = Vec::new();
        let mut seg_at = Vec::new();
        for &(_, k, seq, flags, data) in script {
            let raw = tcp::build(k.src.port, k.dst.port, seq, 0, flags, data);
            seg_at.push(arena.len()..arena.len() + raw.len());
            arena.extend_from_slice(&raw);
        }
        let mut spans = SpanReassembler::new();
        for (&(ts, k, _, _, _), raw_range) in script.iter().zip(&seg_at) {
            let seg = TcpSegment::parse(&arena[raw_range.clone()]).unwrap();
            let payload = crate::arena::subslice_range(&arena, seg.payload);
            spans.push_span(ts, k, &seg, payload);
        }
        let mut span_gaps = 0;
        let mut buf = StreamBuf::new();
        spans.gather_streams(&arena, &mut span_gaps, &mut buf);

        assert_eq!(legacy_gaps, span_gaps, "gap counts diverge");
        assert_eq!(streams.len(), buf.len(), "stream counts diverge");
        for (s, v) in streams.iter().zip(buf.views(&arena)) {
            assert_eq!(s.key, v.key);
            assert_eq!(s.data.as_slice(), v.data, "bytes diverge on {}", s.key.src);
            assert_eq!(s.timeline.as_slice(), v.timeline);
            assert_eq!(s.closed, v.closed);
        }
    }

    #[test]
    fn span_path_matches_copying_path_on_clean_and_hostile_scripts() {
        let k = key();
        let r = key().reversed();
        let scripts: &[&[Scripted]] = &[
            // Clean two-direction exchange with SYNs and FIN.
            &[
                (0.5, k, 999, TcpFlags::syn(), b""),
                (1.0, k, 1000, TcpFlags::data(), b"GET / HTTP/1.1\r\n\r\n"),
                (1.5, r, 499, TcpFlags::syn(), b""),
                (2.0, r, 500, TcpFlags::data(), b"HTTP/1.1 200 OK\r\n"),
                (2.5, r, 517, TcpFlags::data(), b"\r\nbody"),
                (3.0, k, 1018, TcpFlags::fin(), b""),
            ],
            // Reordering, retransmission, and partial overlap.
            &[
                (2.0, k, 106, TcpFlags::data(), b"world"),
                (1.0, k, 100, TcpFlags::data(), b"hello "),
                (3.0, k, 100, TcpFlags::data(), b"HELLO "),
                (4.0, k, 104, TcpFlags::data(), b"o WOR"),
            ],
            // Same-offset retransmit that is LONGER than the first copy:
            // the copying path drops it wholly; the span path must too.
            &[
                (1.0, k, 100, TcpFlags::data(), b"abc"),
                (2.0, k, 100, TcpFlags::data(), b"abcdef"),
                (3.0, k, 103, TcpFlags::data(), b"XYZ"),
            ],
            // Late SYN rebase plus stale below-SYN data.
            &[
                (2.0, k, 6400, TcpFlags::data(), b"world"),
                (1.0, k, 4999, TcpFlags::syn(), b""),
                (1.5, k, 5000, TcpFlags::data(), b"front"),
                (2.5, k, 4000, TcpFlags::data(), b"stale"),
            ],
            // Provisional-base rebase: below-base data arrives late.
            &[
                (1.0, k, 500, TcpFlags::data(), b"tail"),
                (2.0, k, 100, TcpFlags::data(), b"head"),
            ],
            // Gaps in both directions, RST close.
            &[
                (1.0, k, 100, TcpFlags::data(), b"abc"),
                (2.0, k, 200, TcpFlags::data(), b"xyz"),
                (3.0, r, 1, TcpFlags::data(), b"pqr"),
                (4.0, r, 900, TcpFlags::data(), b"end"),
                (5.0, r, 903, TcpFlags { rst: true, ack: true, ..TcpFlags::default() }, b""),
            ],
        ];
        for script in scripts {
            assert_paths_equivalent(script);
            assert_live_matches_span_path(script);
        }
    }

    /// Live reassembly of a script: per flow, the delivered bytes and
    /// their timeline, everything flushed at the end, and the gap count.
    fn live_streams(script: &[Scripted]) -> (Vec<Stream>, u64) {
        let mut flows: Vec<(LiveStream, Stream)> = Vec::new();
        let mut gaps = 0;
        fn append(s: &mut Stream) -> impl FnMut(f64, &[u8]) + '_ {
            move |ts, b| {
                s.timeline.push((s.data.len(), ts));
                s.data.extend_from_slice(b);
            }
        }
        for &(ts, key, seq, flags, data) in script {
            let raw = tcp::build(key.src.port, key.dst.port, seq, 0, flags, data);
            let i = flows.iter().position(|f| f.1.key == key).unwrap_or_else(|| {
                let stream = Stream { key, data: Vec::new(), timeline: Vec::new(), closed: false };
                flows.push((LiveStream::default(), stream));
                flows.len() - 1
            });
            let (live, stream) = &mut flows[i];
            live.push(ts, &TcpSegment::parse(&raw).unwrap(), &mut gaps, append(stream));
        }
        let streams = flows
            .into_iter()
            .map(|(mut live, mut stream)| {
                live.flush(&mut gaps, append(&mut stream));
                stream
            })
            .collect();
        (streams, gaps)
    }

    /// The live stream runs the span path's rules: with nothing pushed
    /// out of its window, it yields the offline gather exactly.
    fn assert_live_matches_span_path(script: &[Scripted]) {
        let mut spans = SpanReassembler::new();
        let mut arena = Vec::new();
        let raws: Vec<Vec<u8>> = script
            .iter()
            .map(|&(_, k, seq, flags, data)| {
                tcp::build(k.src.port, k.dst.port, seq, 0, flags, data)
            })
            .collect();
        for raw in &raws {
            arena.extend_from_slice(raw);
        }
        let mut at = 0;
        for (&(ts, k, ..), raw) in script.iter().zip(&raws) {
            let seg = TcpSegment::parse(&arena[at..at + raw.len()]).unwrap();
            spans.push_span(ts, k, &seg, crate::arena::subslice_range(&arena, seg.payload));
            at += raw.len();
        }
        let (mut span_gaps, mut buf) = (0, StreamBuf::new());
        spans.gather_streams(&arena, &mut span_gaps, &mut buf);
        let (live, live_gaps) = live_streams(script);
        assert_eq!(live_gaps, span_gaps, "gap counts diverge");
        assert_eq!(live.len(), buf.len());
        for (s, v) in live.iter().zip(buf.views(&arena)) {
            assert_eq!(s.key, v.key);
            assert_eq!(s.data.as_slice(), v.data, "bytes diverge on {}", s.key.src);
            assert_eq!(s.timeline.as_slice(), v.timeline);
        }
    }

    /// Data delivered live waits at most for a SYN and for
    /// [`MAX_OOO_SEGMENTS`] segments past a hole. Up to that bound the
    /// live stream equals the offline gather; one segment more and the
    /// hole is skipped as a gap, so bytes that fill it later are stale.
    #[test]
    fn live_window_is_exact_up_to_its_bound_and_skips_past_it() {
        let k = key();
        for held in [MAX_OOO_SEGMENTS, MAX_OOO_SEGMENTS + 1] {
            let mut script: Vec<Scripted> = vec![(0.0, k, 99, TcpFlags::syn(), b"")];
            // A hole at offset 0..4, then `held` segments past it, then
            // the late segment that fills the hole.
            for i in 0..held {
                script.push((1.0 + i as f64, k, 104 + 4 * i as u32, TcpFlags::data(), b"data"));
            }
            script.push((1000.0, k, 100, TcpFlags::data(), b"late"));
            let (live, gaps) = live_streams(&script);
            if held == MAX_OOO_SEGMENTS {
                assert_live_matches_span_path(&script);
                assert_eq!(gaps, 0);
                assert!(live[0].data.starts_with(b"late"));
            } else {
                assert_eq!(gaps, 1, "the hole is skipped once");
                assert_eq!(live[0].data.len(), 4 * held, "the late bytes are stale");
            }
        }
    }

    #[test]
    fn span_reassembler_reuse_is_clean_across_captures() {
        let mut spans = SpanReassembler::new();
        let mut buf = StreamBuf::new();
        let k = key();
        for round in 0..3 {
            let raw = tcp::build(k.src.port, k.dst.port, 100, 0, TcpFlags::data(), b"abc");
            let raw2 = tcp::build(k.src.port, k.dst.port, 103, 0, TcpFlags::data(), b"def");
            let mut arena = raw.clone();
            arena.extend_from_slice(&raw2);
            let seg1 = TcpSegment::parse(&arena[..raw.len()]).unwrap();
            let p1 = crate::arena::subslice_range(&arena, seg1.payload);
            spans.push_span(1.0, k, &seg1, p1);
            let seg2 = TcpSegment::parse(&arena[raw.len()..]).unwrap();
            let p2 = crate::arena::subslice_range(&arena, seg2.payload);
            spans.push_span(2.0, k, &seg2, p2);
            let mut gaps = 0;
            spans.gather_streams(&arena, &mut gaps, &mut buf);
            assert_eq!(gaps, 0, "round {round}");
            assert_eq!(buf.len(), 1);
            assert_eq!(buf.view(&arena, 0).data, b"abcdef");
        }
    }
}
