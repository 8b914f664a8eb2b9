//! Pairing of HTTP requests and responses into transactions.
//!
//! An [`HttpTransaction`] is the unit every downstream DynaMiner component
//! consumes: one request/response exchange between a client and a server,
//! carrying timestamps, headers, and a classified payload summary.
//!
//! [`TransactionExtractor`] reconstructs transactions from raw captured
//! packets: Ethernet → IPv4 → TCP → stream reassembly → HTTP parsing →
//! FIFO request/response pairing per connection.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::arena::{subslice_range, PacketSpan};
use crate::http::{
    decode_chunked, parse_request_head, parse_response_head, request_body_framing,
    response_body_framing, BodyFraming, HeaderMap, Method, RequestHead, ResponseHead,
};
use crate::ingest::IngestReport;
use crate::payload::{classify, PayloadClass};
use crate::pcap::Packet;
use crate::reassembly::{
    decode_frame, Endpoint, FlowKey, SpanReassembler, Stream, StreamBuf, StreamReassembler,
    StreamView,
};
use crate::{Error, Result};

/// Number of leading body bytes retained for inspection (redirect
/// de-obfuscation, signature hashing previews).
pub const BODY_PREVIEW_LEN: usize = 4096;

/// Maximum decoded (post-`Content-Encoding`) body size the decode gate
/// will materialize — the zip-bomb guard. A kilobyte-scale gzip body
/// can claim gigabytes of output; decoding is aborted at this bound
/// (the partial output is discarded, the still-encoded wire bytes are
/// kept, and [`IngestReport::decode_cap_exceeded`] counts the event).
/// 8 MiB comfortably covers every payload the detector inspects —
/// classification reads magic bytes and the [`BODY_PREVIEW_LEN`]
/// prefix, and real drive-by payloads are single-digit megabytes.
pub const MAX_DECODED_BODY_BYTES: usize = 8 << 20;

/// One paired HTTP request/response exchange.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HttpTransaction {
    /// Monotone ingest sequence number: the transaction's position in
    /// the stream it was ingested from. Timestamps can tie (coarse
    /// capture clocks, batched exports), so every replay path orders by
    /// `(ts, seq)` — a total order — instead of `ts` alone, and the
    /// sharded stream engine uses `seq` as the merge tie-break when
    /// recombining per-shard alert streams. [`TransactionExtractor`]
    /// numbers transactions in emission order; [`assign_seq`] renumbers
    /// a merged or re-sorted stream.
    pub seq: u64,
    /// Time the request head was observed (seconds since epoch).
    pub ts: f64,
    /// Time the response body completed.
    pub resp_ts: f64,
    /// Client endpoint (the request sender).
    pub client: Endpoint,
    /// Server endpoint.
    pub server: Endpoint,
    /// Server hostname: the `Host` header when present, otherwise the
    /// server IP rendered as a string.
    pub host: String,
    /// Request method.
    pub method: Method,
    /// Request URI as sent.
    pub uri: String,
    /// All request headers.
    pub req_headers: HeaderMap,
    /// Response status code (0 when the response was never observed).
    pub status: u16,
    /// All response headers.
    pub resp_headers: HeaderMap,
    /// Classified payload type of the response body.
    pub payload_class: PayloadClass,
    /// Response body size in bytes.
    pub payload_size: usize,
    /// First [`BODY_PREVIEW_LEN`] bytes of the response body.
    pub body_preview: Vec<u8>,
    /// FNV-1a digest of the full response body (payload identity for the
    /// comparator engines).
    pub payload_digest: u64,
}

impl HttpTransaction {
    /// The `Referer` request header, if set and non-empty.
    pub fn referer(&self) -> Option<&str> {
        self.req_headers.get("Referer").filter(|v| !v.is_empty())
    }

    /// The `Location` response header, if set.
    pub fn location(&self) -> Option<&str> {
        self.resp_headers.get("Location")
    }

    /// The `User-Agent` request header, if set.
    pub fn user_agent(&self) -> Option<&str> {
        self.req_headers.get("User-Agent")
    }

    /// The response `Content-Type`, if set.
    pub fn content_type(&self) -> Option<&str> {
        self.resp_headers.get("Content-Type")
    }

    /// Whether the `DNT` (do-not-track) request header is enabled.
    pub fn dnt_enabled(&self) -> bool {
        self.req_headers.get("DNT").is_some_and(|v| v.trim() == "1")
    }

    /// The `X-Flash-Version` request header, if set.
    pub fn x_flash_version(&self) -> Option<&str> {
        self.req_headers.get("X-Flash-Version")
    }

    /// A session identifier: the `Cookie` header when present, otherwise a
    /// session-id-like URI query parameter (`PHPSESSID`, `sessionid`,
    /// `sid`, `jsessionid`).
    pub fn session_id(&self) -> Option<String> {
        if let Some(c) = self.req_headers.get("Cookie") {
            return Some(c.to_string());
        }
        let query = self.uri.split_once('?')?.1;
        for kv in query.split('&') {
            let (k, v) = kv.split_once('=')?;
            if ["phpsessid", "sessionid", "sid", "jsessionid"]
                .iter()
                .any(|key| k.eq_ignore_ascii_case(key))
            {
                return Some(v.to_string());
            }
        }
        None
    }

    /// Whether the response is a redirect (3xx status).
    pub fn is_redirect(&self) -> bool {
        self.status / 100 == 3
    }

    /// Status class (1–5), or 0 when no response was observed.
    pub fn status_class(&self) -> u16 {
        self.status / 100
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

/// Computes the 64-bit FNV-1a digest of `data`.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = FNV_OFFSET;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Digests many bodies, producing exactly `fnv1a(bodies[i])` in
/// `out[i]` — but several times faster on a batch.
///
/// FNV-1a is a strict dependency chain (`xor` then multiply per byte),
/// so a single body digests at the multiplier's *latency*, not its
/// throughput. Bodies are independent, though: interleaving four of them
/// keeps four multiply chains in flight, and the out-of-order core
/// overlaps them. When a lane's body ends it is refilled from the queue;
/// a non-full tail falls back to the sequential form. The per-body
/// values are bit-identical to [`fnv1a`] by construction.
pub fn fnv1a_many(bodies: &[&[u8]], out: &mut Vec<u64>) {
    out.clear();
    // Empty bodies hash to the offset basis; pre-fill so the lane refill
    // can skip them without occupying a lane.
    out.resize(bodies.len(), FNV_OFFSET);
    let mut next = 0usize;
    let mut lane = [usize::MAX; 4];
    let mut pos = [0usize; 4];
    let mut hash = [FNV_OFFSET; 4];
    loop {
        for l in 0..4 {
            while lane[l] == usize::MAX && next < bodies.len() {
                if bodies[next].is_empty() {
                    next += 1;
                    continue;
                }
                lane[l] = next;
                pos[l] = 0;
                hash[l] = FNV_OFFSET;
                next += 1;
            }
        }
        let active = lane.iter().filter(|&&i| i != usize::MAX).count();
        if active == 0 {
            return;
        }
        if active < 4 {
            // Queue exhausted: finish the stragglers sequentially.
            for l in 0..4 {
                if lane[l] != usize::MAX {
                    let body = bodies[lane[l]];
                    let mut h = hash[l];
                    for &b in &body[pos[l]..] {
                        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
                    }
                    out[lane[l]] = h;
                    lane[l] = usize::MAX;
                }
            }
            continue;
        }
        // All four lanes occupied: advance them in lockstep until the
        // shortest remaining body ends.
        let step = (0..4).map(|l| bodies[lane[l]].len() - pos[l]).min().expect("4 lanes");
        let s0 = &bodies[lane[0]][pos[0]..pos[0] + step];
        let s1 = &bodies[lane[1]][pos[1]..pos[1] + step];
        let s2 = &bodies[lane[2]][pos[2]..pos[2] + step];
        let s3 = &bodies[lane[3]][pos[3]..pos[3] + step];
        let (mut h0, mut h1, mut h2, mut h3) = (hash[0], hash[1], hash[2], hash[3]);
        for j in 0..step {
            h0 = (h0 ^ s0[j] as u64).wrapping_mul(FNV_PRIME);
            h1 = (h1 ^ s1[j] as u64).wrapping_mul(FNV_PRIME);
            h2 = (h2 ^ s2[j] as u64).wrapping_mul(FNV_PRIME);
            h3 = (h3 ^ s3[j] as u64).wrapping_mul(FNV_PRIME);
        }
        hash = [h0, h1, h2, h3];
        for l in 0..4 {
            pos[l] += step;
            if pos[l] == bodies[lane[l]].len() {
                out[lane[l]] = hash[l];
                lane[l] = usize::MAX;
            }
        }
    }
}

/// A response entity body: borrowed from reassembled stream storage when
/// the framing permits (`Content-Length`, read-until-close), owned when
/// chunk decoding or content-coding removal had to materialize it.
#[derive(Debug)]
pub(crate) enum Body<'a> {
    Borrowed(&'a [u8]),
    Owned(Vec<u8>),
}

impl<'a> Body<'a> {
    pub(crate) fn as_slice(&self) -> &[u8] {
        match self {
            Body::Borrowed(b) => b,
            Body::Owned(v) => v,
        }
    }

    pub(crate) fn into_owned(self) -> Vec<u8> {
        match self {
            Body::Borrowed(b) => b.to_vec(),
            Body::Owned(v) => v,
        }
    }
}

/// Reconstructs [`HttpTransaction`]s from captured packets.
#[derive(Debug, Default)]
pub struct TransactionExtractor {
    reassembler: StreamReassembler,
    /// Frames the decode step dropped or found not to be TCP/IPv4.
    decode: IngestReport,
}

impl TransactionExtractor {
    /// Creates an empty extractor.
    pub fn new() -> Self {
        TransactionExtractor::default()
    }

    /// Feeds one captured packet (Ethernet frame). Non-IPv4 and non-TCP
    /// packets and undecodable packets are ignored (but counted for
    /// [`TransactionExtractor::finish_lenient`]), matching capture-tool
    /// behaviour on mixed traffic.
    pub fn push_packet(&mut self, packet: &Packet) {
        if let Some((key, tcp)) = decode_frame(&packet.data, &mut self.decode) {
            self.reassembler.push(packet.ts, key, &tcp);
        }
    }

    /// Finishes extraction: reassembles all flows, pairs requests with
    /// responses per connection, and returns transactions sorted by request
    /// timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`crate::Error::HttpSyntax`] when a stream that begins like
    /// an HTTP message is malformed. Streams that do not look like HTTP at
    /// all are skipped silently.
    pub fn finish(self) -> Result<Vec<HttpTransaction>> {
        let streams = self.reassembler.into_streams();
        let mut connections: BTreeMap<(Endpoint, Endpoint), (Option<Stream>, Option<Stream>)> =
            BTreeMap::new();
        for stream in streams {
            let id = stream.key.connection_id();
            let entry = connections.entry(id).or_default();
            if looks_like_request(&stream.data) {
                entry.0 = Some(stream);
            } else {
                entry.1 = Some(stream);
            }
        }
        let mut out = Vec::new();
        for (_, (req, resp)) in connections {
            let Some(req_stream) = req else { continue };
            out.extend(pair_connection(req_stream.as_view(), resp.as_ref().map(Stream::as_view))?);
        }
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        assign_seq(&mut out);
        Ok(out)
    }

    /// Convenience: extracts transactions from a full packet list.
    ///
    /// # Errors
    ///
    /// See [`TransactionExtractor::finish`].
    pub fn extract(packets: &[Packet]) -> Result<Vec<HttpTransaction>> {
        let mut ex = TransactionExtractor::new();
        for p in packets {
            ex.push_packet(p);
        }
        ex.finish()
    }

    /// Finishes extraction in graceful-degradation mode: every parseable
    /// prefix of every stream is salvaged, malformed remainders are
    /// quarantined, and nothing fails.
    ///
    /// Where [`TransactionExtractor::finish`] aborts on the first
    /// malformed HTTP stream, this variant keeps the messages parsed
    /// before the error (counting the stream as salvaged, or discarded
    /// when nothing was recoverable), counts non-HTTP streams instead of
    /// silently dropping them, and records gzip/chunked decode failures
    /// — all in `report`.
    pub fn finish_lenient(self, report: &mut IngestReport) -> Vec<HttpTransaction> {
        report.merge(&self.decode);
        let streams = self.reassembler.into_streams_counting(&mut report.reassembly_gaps);
        report.streams_total += streams.len() as u64;
        let mut connections: BTreeMap<(Endpoint, Endpoint), (Option<Stream>, Option<Stream>)> =
            BTreeMap::new();
        for stream in streams {
            let id = stream.key.connection_id();
            let entry = connections.entry(id).or_default();
            let slot = if looks_like_request(&stream.data) { &mut entry.0 } else { &mut entry.1 };
            if let Some(displaced) = slot.replace(stream) {
                count_unpaired(report, &displaced.data);
            }
        }
        let mut out = Vec::new();
        for (_, (req, resp)) in connections {
            let Some(req_stream) = req else {
                if let Some(r) = resp {
                    count_unpaired(report, &r.data);
                }
                continue;
            };
            pair_connection_lenient(
                req_stream.as_view(),
                resp.as_ref().map(Stream::as_view),
                report,
                &mut out,
                None,
            );
        }
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        assign_seq(&mut out);
        report.transactions_recovered += out.len() as u64;
        out
    }

    /// Convenience: lenient extraction from a full packet list. Never
    /// fails; losses are accounted in `report`.
    pub fn extract_lenient(packets: &[Packet], report: &mut IngestReport) -> Vec<HttpTransaction> {
        let mut ex = TransactionExtractor::new();
        for p in packets {
            ex.push_packet(p);
        }
        ex.finish_lenient(report)
    }
}

/// Zero-copy capture → transaction pipeline: the lenient sibling of
/// [`TransactionExtractor::extract_lenient`] that never copies packet
/// bytes on the way in.
///
/// Packets are read as `(ts, range)` spans into the capture buffer
/// ([`crate::capture::read_packet_spans_lenient`]), reassembled by span
/// ([`SpanReassembler`]) with bytes materialized only for multi-segment
/// flows, parsed from [`StreamView`]s that borrow stream storage, and
/// digested in one batch ([`fnv1a_many`]) after all connections are
/// paired. Every buffer lives in the pipeline and is reused across
/// captures, so steady-state packet processing allocates nothing.
///
/// The produced transactions, their ordering, and the `report`
/// accounting are byte-identical to the copying path — asserted by the
/// equivalence tests here and the fault-injection proptests in
/// `tests/fault_injection.rs`.
#[derive(Debug, Default)]
pub struct SpanPipeline {
    spans: Vec<PacketSpan>,
    reassembler: SpanReassembler,
    streams: StreamBuf,
    digests: Vec<u64>,
}

impl SpanPipeline {
    /// Creates an empty pipeline.
    pub fn new() -> Self {
        SpanPipeline::default()
    }

    /// Extracts transactions from one capture, leniently: the zero-copy
    /// equivalent of [`TransactionExtractor::extract_lenient`] fed from
    /// [`crate::capture::read_packets_lenient`]. Never fails; losses are
    /// accounted in `report`.
    pub fn extract_lenient(
        &mut self,
        capture: &[u8],
        report: &mut IngestReport,
    ) -> Vec<HttpTransaction> {
        self.spans.clear();
        crate::capture::read_packet_spans_lenient(capture, report, &mut self.spans);
        for span in &self.spans {
            if let Some((key, tcp)) = decode_frame(&capture[span.range.clone()], report) {
                let payload = subslice_range(capture, tcp.payload);
                self.reassembler.push_span(span.ts, key, &tcp, payload);
            }
        }
        self.reassembler.gather_streams(capture, &mut report.reassembly_gaps, &mut self.streams);
        report.streams_total += self.streams.len() as u64;
        let mut connections: BTreeMap<(Endpoint, Endpoint), (Option<usize>, Option<usize>)> =
            BTreeMap::new();
        for i in 0..self.streams.len() {
            let view = self.streams.view(capture, i);
            let entry = connections.entry(view.key.connection_id()).or_default();
            let slot = if looks_like_request(view.data) { &mut entry.0 } else { &mut entry.1 };
            if let Some(displaced) = slot.replace(i) {
                count_unpaired(report, self.streams.view(capture, displaced).data);
            }
        }
        let mut out = Vec::new();
        let mut deferred: Vec<(usize, Body<'_>)> = Vec::new();
        for (_, (req, resp)) in connections {
            let Some(ri) = req else {
                if let Some(oi) = resp {
                    count_unpaired(report, self.streams.view(capture, oi).data);
                }
                continue;
            };
            pair_connection_lenient(
                self.streams.view(capture, ri),
                resp.map(|i| self.streams.view(capture, i)),
                report,
                &mut out,
                Some(&mut deferred),
            );
        }
        // All bodies observed: digest the batch in interleaved lanes and
        // write results back by index. Must happen before the sort below
        // invalidates the queued indices.
        {
            let slices: Vec<&[u8]> = deferred.iter().map(|(_, b)| b.as_slice()).collect();
            fnv1a_many(&slices, &mut self.digests);
        }
        for (j, (idx, _)) in deferred.iter().enumerate() {
            out[*idx].payload_digest = self.digests[j];
        }
        drop(deferred);
        out.sort_by(|a, b| a.ts.total_cmp(&b.ts));
        assign_seq(&mut out);
        report.transactions_recovered += out.len() as u64;
        out
    }

    /// Convenience: one-shot lenient extraction from raw capture bytes.
    pub fn extract_capture_lenient(
        capture: &[u8],
        report: &mut IngestReport,
    ) -> Vec<HttpTransaction> {
        SpanPipeline::new().extract_lenient(capture, report)
    }
}

/// Renumbers a transaction stream's [`HttpTransaction::seq`] ingest
/// sequence numbers to match the stream's current order. Call after
/// merging or re-sorting streams from several sources so `(ts, seq)`
/// ordering is a total order again (duplicate sequence numbers from
/// independent extractions would otherwise leave ties).
pub fn assign_seq(transactions: &mut [HttpTransaction]) {
    for (i, tx) in transactions.iter_mut().enumerate() {
        tx.seq = i as u64;
    }
}

/// Accounts for a stream that will produce no transactions: orphan HTTP
/// responses count as discarded, anything else as non-HTTP.
pub(crate) fn count_unpaired(report: &mut IngestReport, data: &[u8]) {
    if data.starts_with(b"HTTP/") {
        report.streams_discarded += 1;
    } else {
        report.streams_skipped_non_http += 1;
    }
}

/// Whether a byte stream begins with a plausible HTTP request line.
pub(crate) fn looks_like_request(data: &[u8]) -> bool {
    const METHODS: [&[u8]; 8] =
        [b"GET ", b"POST ", b"HEAD ", b"PUT ", b"DELET", b"OPTIO", b"PATCH", b"CONNE"];
    METHODS.iter().any(|m| data.starts_with(m))
}

#[derive(Debug)]
pub(crate) struct ParsedRequest {
    pub(crate) head: crate::http::RequestHead,
    pub(crate) ts: f64,
}

pub(crate) struct ParsedResponse<'a> {
    pub(crate) head: crate::http::ResponseHead,
    pub(crate) body: Body<'a>,
    pub(crate) end_ts: f64,
}

/// The parseable prefix of one HTTP stream: the messages recovered
/// before the first error (if any), and whether the stop was a
/// chunked-framing failure.
struct Salvage<T> {
    items: Vec<T>,
    error: Option<Error>,
    chunked_failure: bool,
}

impl<T> Salvage<T> {
    /// Converts to strict semantics: the first parse error fails the
    /// whole stream, discarding the salvaged prefix.
    fn strict(self) -> Result<Vec<T>> {
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.items),
        }
    }

    /// Folds this stream's outcome into a lenient ingest report:
    /// errored streams count as salvaged (some messages recovered) or
    /// discarded (none), and chunked failures are tallied.
    fn account(&self, report: &mut IngestReport) {
        if self.error.is_none() {
            return;
        }
        if self.chunked_failure {
            report.chunked_failures += 1;
        }
        if self.items.is_empty() {
            report.streams_discarded += 1;
        } else {
            report.streams_salvaged += 1;
        }
    }
}

/// One message framed off the front of a stream's unparsed bytes.
pub(crate) enum Framed<M> {
    /// A whole message and the number of bytes it spans.
    Message(M, usize),
    /// The head or body is still incomplete; only while the stream is open.
    Incomplete,
    /// The bytes cannot be framed; `chunked` marks a chunked-body failure.
    Invalid { error: Error, chunked: bool },
}

/// The body after a message head. At the end of the stream a body the
/// stream cut short is truncated to what arrived: `Content-Length` and
/// until-close bodies take the rest, an unterminated chunked body keeps
/// its raw bytes.
fn frame_body(framing: BodyFraming, avail: &[u8], at_end: bool) -> Framed<Body<'_>> {
    match framing {
        BodyFraming::None => Framed::Message(Body::Borrowed(&[]), 0),
        BodyFraming::Length(n) if n <= avail.len() => {
            Framed::Message(Body::Borrowed(&avail[..n]), n)
        }
        BodyFraming::Chunked => match decode_chunked(avail) {
            Ok(Some((body, consumed))) => Framed::Message(Body::Owned(body), consumed),
            Ok(None) if at_end => Framed::Message(Body::Borrowed(avail), avail.len()),
            Ok(None) => Framed::Incomplete,
            Err(error) => Framed::Invalid { error, chunked: true },
        },
        _ if at_end => Framed::Message(Body::Borrowed(avail), avail.len()),
        _ => Framed::Incomplete,
    }
}

/// Frames the message at the front of `data`: its head, then the body
/// `framing` assigns it. The one framing step of offline parsing and the
/// live tap, with `at_end` set once the stream can grow no further.
fn frame_message<H>(
    data: &[u8],
    head: Result<Option<(H, usize)>>,
    framing: impl FnOnce(&H) -> BodyFraming,
    at_end: bool,
) -> Framed<(H, Body<'_>)> {
    let (head, consumed) = match head {
        Ok(Some(parsed)) => parsed,
        Ok(None) => return Framed::Incomplete,
        Err(error) => return Framed::Invalid { error, chunked: false },
    };
    match frame_body(framing(&head), &data[consumed..], at_end) {
        Framed::Message(body, n) => Framed::Message((head, body), consumed + n),
        Framed::Incomplete => Framed::Incomplete,
        Framed::Invalid { error, chunked } => Framed::Invalid { error, chunked },
    }
}

/// Frames the request at the front of `data` (see [`frame_message`]).
pub(crate) fn frame_request(data: &[u8], at_end: bool) -> Framed<(RequestHead, Body<'_>)> {
    frame_message(data, parse_request_head(data), request_body_framing, at_end)
}

/// Frames the response to a `method` request at the front of `data`.
pub(crate) fn frame_response<'a>(
    data: &'a [u8],
    method: &Method,
    at_end: bool,
) -> Framed<(ResponseHead, Body<'a>)> {
    frame_message(data, parse_response_head(data), |h| response_body_framing(h, method), at_end)
}

/// Frames every message of a finished stream, stopping at the first
/// that cannot be framed; `on_message(message, start, end)` builds each.
fn parse_stream<'a, M, T>(
    data: &'a [u8],
    mut frame: impl FnMut(&'a [u8], usize) -> Framed<M>,
    mut on_message: impl FnMut(M, usize, usize) -> T,
) -> Salvage<T> {
    let mut out = Salvage { items: Vec::new(), error: None, chunked_failure: false };
    let mut pos = 0usize;
    while pos < data.len() {
        match frame(&data[pos..], out.items.len()) {
            Framed::Message(m, n) => {
                out.items.push(on_message(m, pos, pos + n));
                pos += n;
            }
            Framed::Incomplete => break,
            Framed::Invalid { error, chunked } => {
                out.error = Some(error);
                out.chunked_failure = chunked;
                break;
            }
        }
    }
    out
}

fn parse_requests(stream: StreamView<'_>) -> Salvage<ParsedRequest> {
    parse_stream(
        stream.data,
        |data, _| frame_request(data, true),
        |(head, _), start, _| ParsedRequest { head, ts: stream.timestamp_at(start) },
    )
}

fn parse_responses<'a>(stream: StreamView<'a>, methods: &[Method]) -> Salvage<ParsedResponse<'a>> {
    parse_stream(
        stream.data,
        |data, i| frame_response(data, methods.get(i).unwrap_or(&Method::Get), true),
        |(head, body), _, end| ParsedResponse {
            head,
            body,
            end_ts: stream.timestamp_at(end.saturating_sub(1)),
        },
    )
}

fn pair_connection(
    req_stream: StreamView<'_>,
    resp_stream: Option<StreamView<'_>>,
) -> Result<Vec<HttpTransaction>> {
    let requests = parse_requests(req_stream).strict()?;
    let methods: Vec<Method> = requests.iter().map(|r| r.head.method.clone()).collect();
    let responses = match resp_stream {
        Some(s) => parse_responses(s, &methods).strict()?,
        None => Vec::new(),
    };
    let mut out = Vec::new();
    build_transactions(req_stream.key, requests, responses, None, &mut out, None);
    Ok(out)
}

/// Lenient counterpart of [`pair_connection`]: pairs whatever both
/// directions could salvage and never fails. Stream-level outcomes and
/// body-decode failures are recorded in `report`. Transactions are
/// appended to `out`; with a `deferred` queue, body digests are left at
/// 0 and queued as `(out_index, body)` for batch digesting (see
/// [`fnv1a_many`]).
pub(crate) fn pair_connection_lenient<'a>(
    req_stream: StreamView<'a>,
    resp_stream: Option<StreamView<'a>>,
    report: &mut IngestReport,
    out: &mut Vec<HttpTransaction>,
    deferred: Option<&mut Vec<(usize, Body<'a>)>>,
) {
    let requests = parse_requests(req_stream);
    requests.account(report);
    let methods: Vec<Method> = requests.items.iter().map(|r| r.head.method.clone()).collect();
    let responses = match resp_stream {
        Some(s) => {
            let r = parse_responses(s, &methods);
            r.account(report);
            r.items
        }
        None => Vec::new(),
    };
    build_transactions(req_stream.key, requests.items, responses, Some(report), out, deferred);
}

/// Removes the response's `Content-Encoding` layers from `body`.
///
/// The header is a comma-separated list of coding tokens applied in
/// order, so decoding unwraps them in reverse. Per token
/// (ASCII-case-insensitive, no allocation): `gzip` and its legacy alias
/// `x-gzip` go through [`crate::flate::gzip_decompress`], `deflate`
/// (zlib or raw) through [`crate::flate::deflate_decompress`], and
/// `identity` (or an empty token) is a no-op. Decoding stops at the
/// first failure or unknown coding (`br`, `zstd`, …) — the bytes
/// recovered so far are kept so payload sizing still works, and
/// failures are counted per coding in `report`. Decoded output is
/// bounded by [`MAX_DECODED_BODY_BYTES`]: a body that would expand past
/// it (a zip bomb) keeps its encoded bytes and is counted in
/// [`IngestReport::decode_cap_exceeded`].
fn decode_content_codings<'a>(
    body: Body<'a>,
    resp_headers: &HeaderMap,
    mut report: Option<&mut IngestReport>,
) -> Body<'a> {
    let Some(encodings) = resp_headers.get("Content-Encoding") else {
        // The common case: no coding, nothing to materialize — the body
        // stays a borrow of reassembled stream storage.
        return body;
    };
    let mut body = body.into_owned();
    for token in encodings.rsplit(',') {
        let token = token.trim();
        if token.is_empty() || token.eq_ignore_ascii_case("identity") {
            continue;
        }
        let decoded = if token.eq_ignore_ascii_case("gzip") || token.eq_ignore_ascii_case("x-gzip")
        {
            crate::flate::gzip_decompress_capped(&body, MAX_DECODED_BODY_BYTES)
        } else if token.eq_ignore_ascii_case("deflate") {
            crate::flate::deflate_decompress_capped(&body, MAX_DECODED_BODY_BYTES)
        } else {
            break;
        };
        match decoded {
            Ok(decoded) => body = decoded,
            Err(e) => {
                if let Some(r) = report.as_deref_mut() {
                    match e {
                        Error::DecodedTooLarge { .. } => r.decode_cap_exceeded += 1,
                        _ if token.eq_ignore_ascii_case("deflate") => r.deflate_failures += 1,
                        _ => r.gzip_failures += 1,
                    }
                }
                break;
            }
        }
    }
    Body::Owned(body)
}

/// FIFO-pairs parsed requests with parsed responses on one connection,
/// appending to `out`. With a `report`, body decode failures are counted
/// per coding (the raw body is kept either way). With a `deferred`
/// queue, `payload_digest` is left at 0 and the body queued as
/// `(out_index, body)` so the caller can batch-digest every body at once
/// ([`fnv1a_many`]) — FNV's serial dependency chain makes per-body
/// digesting the single hottest step of ingest.
fn build_transactions<'a>(
    key: FlowKey,
    requests: Vec<ParsedRequest>,
    responses: Vec<ParsedResponse<'a>>,
    mut report: Option<&mut IngestReport>,
    out: &mut Vec<HttpTransaction>,
    mut deferred: Option<&mut Vec<(usize, Body<'a>)>>,
) {
    let client = key.src;
    let server = key.dst;
    let mut responses = responses.into_iter();
    for req in requests {
        let resp = responses.next();
        let (mut tx, body) =
            synthesize_transaction(client, server, req, resp, report.as_deref_mut());
        if deferred.is_none() {
            tx.payload_digest = fnv1a(body.as_slice());
        }
        out.push(tx);
        if let Some(q) = deferred.as_deref_mut() {
            q.push((out.len() - 1, body));
        }
    }
}

/// Synthesizes one [`HttpTransaction`] from a parsed request and its
/// (optional) parsed response: Host resolution, the decode gate,
/// payload classification, and the body preview — shared verbatim by
/// the offline pairing paths above and the live wire tap
/// ([`crate::wiretap`]), so a transaction observed on the wire is
/// byte-identical to the same exchange extracted from a capture.
///
/// `payload_digest` is left at 0; the caller digests `body` directly
/// ([`fnv1a`]) or queues it for batch digesting ([`fnv1a_many`]).
pub(crate) fn synthesize_transaction<'a>(
    client: Endpoint,
    server: Endpoint,
    req: ParsedRequest,
    resp: Option<ParsedResponse<'a>>,
    report: Option<&mut IngestReport>,
) -> (HttpTransaction, Body<'a>) {
    let host = req
        .head
        .headers
        .get("Host")
        .map(str::to_string)
        .unwrap_or_else(|| server.addr.to_string());
    let (status, resp_headers, body, end_ts) = match resp {
        Some(r) => (r.head.status, r.head.headers, r.body, r.end_ts),
        None => (0, HeaderMap::new(), Body::Borrowed(&[][..]), req.ts),
    };
    // Entity bodies are exposed *decoded*: content codings are
    // removed so payload classification, digests, and redirect mining
    // see the real content (where meta-refresh tags and obfuscated
    // JavaScript actually live). Undecodable bodies fall back to the
    // raw bytes, counted per coding.
    let body = decode_content_codings(body, &resp_headers, report);
    let bytes = body.as_slice();
    let content_type = resp_headers.get("Content-Type").map(str::to_string);
    let payload_class = classify(&req.head.uri, content_type.as_deref(), bytes.len(), bytes);
    let preview_len = bytes.len().min(BODY_PREVIEW_LEN);
    let tx = HttpTransaction {
        seq: 0, // numbered in emission order by the caller
        ts: req.ts,
        resp_ts: end_ts,
        client,
        server,
        host,
        method: req.head.method,
        uri: req.head.uri,
        req_headers: req.head.headers,
        status,
        resp_headers,
        payload_class,
        payload_size: bytes.len(),
        payload_digest: 0,
        body_preview: bytes[..preview_len].to_vec(),
    };
    (tx, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reassembly::{Endpoint, FlowKey};
    use std::net::Ipv4Addr;

    fn mk_stream(key: FlowKey, data: &[u8], ts: f64) -> Stream {
        Stream { key, data: data.to_vec(), timeline: vec![(0, ts)], closed: true }
    }

    fn pair(req: &Stream, resp: Option<&Stream>) -> crate::Result<Vec<HttpTransaction>> {
        pair_connection(req.as_view(), resp.map(Stream::as_view))
    }

    fn pair_lenient(
        req: &Stream,
        resp: Option<&Stream>,
        report: &mut IngestReport,
    ) -> Vec<HttpTransaction> {
        let mut out = Vec::new();
        pair_connection_lenient(req.as_view(), resp.map(Stream::as_view), report, &mut out, None);
        out
    }

    fn conn() -> FlowKey {
        FlowKey::new(
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 2), 50000),
            Endpoint::new(Ipv4Addr::new(203, 0, 113, 9), 80),
        )
    }

    #[test]
    fn pairs_single_transaction() {
        let req = b"GET /page.html HTTP/1.1\r\nHost: example.com\r\nReferer: http://google.com/\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Length: 5\r\n\r\nhello";
        let txs = pair(
            &mk_stream(conn(), req, 1.0),
            Some(&mk_stream(conn().reversed(), resp, 1.2)),
        )
        .unwrap();
        assert_eq!(txs.len(), 1);
        let t = &txs[0];
        assert_eq!(t.host, "example.com");
        assert_eq!(t.method, Method::Get);
        assert_eq!(t.status, 200);
        assert_eq!(t.payload_size, 5);
        assert_eq!(t.payload_class, PayloadClass::Html);
        assert_eq!(t.referer(), Some("http://google.com/"));
        assert_eq!(t.ts, 1.0);
    }

    #[test]
    fn pairs_pipelined_transactions_in_order() {
        let req = b"GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b.js HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nAHTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nBB";
        let txs = pair(
            &mk_stream(conn(), req, 1.0),
            Some(&mk_stream(conn().reversed(), resp, 1.1)),
        )
        .unwrap();
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].uri, "/a");
        assert_eq!(txs[0].status, 200);
        assert_eq!(txs[1].uri, "/b.js");
        assert_eq!(txs[1].status, 404);
        assert_eq!(txs[1].payload_size, 2);
    }

    #[test]
    fn missing_response_yields_status_zero() {
        let req = b"POST /exfil HTTP/1.1\r\nHost: cc.evil\r\nContent-Length: 4\r\n\r\ndata";
        let txs = pair(&mk_stream(conn(), req, 2.0), None).unwrap();
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].status, 0);
        assert_eq!(txs[0].method, Method::Post);
        assert_eq!(txs[0].payload_class, PayloadClass::Empty);
    }

    #[test]
    fn chunked_response_body_is_decoded() {
        let req = b"GET /d.bin HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp =
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nMZxx\r\n3\r\nyyy\r\n0\r\n\r\n";
        let txs = pair(
            &mk_stream(conn(), req, 0.0),
            Some(&mk_stream(conn().reversed(), resp, 0.0)),
        )
        .unwrap();
        assert_eq!(txs[0].payload_size, 7);
        assert_eq!(txs[0].payload_class, PayloadClass::Exe); // MZ magic
    }

    #[test]
    fn until_close_body_consumes_rest() {
        let req = b"GET /v HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\n\r\nstream-until-close";
        let txs = pair(
            &mk_stream(conn(), req, 0.0),
            Some(&mk_stream(conn().reversed(), resp, 0.0)),
        )
        .unwrap();
        assert_eq!(txs[0].payload_size, 18);
    }

    #[test]
    fn session_id_from_cookie_and_query() {
        let mut t = HttpTransaction {
            seq: 0,
            ts: 0.0,
            resp_ts: 0.0,
            client: Endpoint::new(Ipv4Addr::LOCALHOST, 1),
            server: Endpoint::new(Ipv4Addr::LOCALHOST, 80),
            host: "h".into(),
            method: Method::Get,
            uri: "/x?PHPSESSID=abc123&o=1".into(),
            req_headers: HeaderMap::new(),
            status: 200,
            resp_headers: HeaderMap::new(),
            payload_class: PayloadClass::Html,
            payload_size: 0,
            body_preview: Vec::new(),
            payload_digest: 0,
        };
        assert_eq!(t.session_id(), Some("abc123".into()));
        t.req_headers.append("Cookie", "sid=zzz");
        assert_eq!(t.session_id(), Some("sid=zzz".into()));
    }

    #[test]
    fn gzip_bodies_are_decoded_for_classification() {
        let html = b"<html><meta http-equiv=\"refresh\" content=\"0;url=http://next.example/\"></html>";
        let gz = crate::flate::gzip_compress(html);
        let req = b"GET /page HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
            gz.len()
        );
        let mut resp_bytes = resp.into_bytes();
        resp_bytes.extend_from_slice(&gz);
        let txs = pair(
            &mk_stream(conn(), req, 0.0),
            Some(&mk_stream(conn().reversed(), &resp_bytes, 0.1)),
        )
        .unwrap();
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].payload_class, PayloadClass::Html);
        assert_eq!(txs[0].payload_size, html.len(), "decoded size");
        assert_eq!(txs[0].payload_digest, fnv1a(html), "decoded digest");
        assert!(String::from_utf8_lossy(&txs[0].body_preview).contains("next.example"));
    }

    fn resp_with_encoding(encoding: &str, wire_body: &[u8]) -> Vec<u8> {
        let mut resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/html\r\nContent-Encoding: {encoding}\r\nContent-Length: {}\r\n\r\n",
            wire_body.len()
        )
        .into_bytes();
        resp.extend_from_slice(wire_body);
        resp
    }

    fn single_tx(encoding: &str, wire_body: &[u8]) -> HttpTransaction {
        let req = b"GET /page HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = resp_with_encoding(encoding, wire_body);
        let mut txs = pair(
            &mk_stream(conn(), req, 0.0),
            Some(&mk_stream(conn().reversed(), &resp, 0.1)),
        )
        .unwrap();
        assert_eq!(txs.len(), 1);
        txs.remove(0)
    }

    #[test]
    fn deflate_bodies_are_decoded_for_classification() {
        let html = b"<html><meta http-equiv=\"refresh\" content=\"0;url=http://next.example/\"></html>";
        // Both on-wire forms of `deflate`: zlib-wrapped and raw.
        for wire in [crate::flate::zlib_compress(html), crate::flate::deflate_stored(html)] {
            let tx = single_tx("deflate", &wire);
            assert_eq!(tx.payload_class, PayloadClass::Html);
            assert_eq!(tx.payload_size, html.len(), "decoded size");
            assert_eq!(tx.payload_digest, fnv1a(html), "decoded digest");
            assert!(String::from_utf8_lossy(&tx.body_preview).contains("next.example"));
        }
    }

    #[test]
    fn x_gzip_alias_decodes_like_gzip() {
        let body = b"<html>aliased</html>";
        let tx = single_tx("x-gzip", &crate::flate::gzip_compress(body));
        assert_eq!(tx.payload_size, body.len());
        assert_eq!(tx.payload_digest, fnv1a(body));
    }

    #[test]
    fn content_encoding_token_list_is_parsed_not_substring_matched() {
        let body = b"<html>token list</html>";
        // Multi-token values decode the real coding, `identity` is a
        // no-op in any position, and case/whitespace are irrelevant.
        for enc in ["gzip, identity", "identity, gzip", " GZIP ", "identity,\tgzip"] {
            let tx = single_tx(enc, &crate::flate::gzip_compress(body));
            assert_eq!(tx.payload_size, body.len(), "encoding {enc:?}");
            assert_eq!(tx.payload_digest, fnv1a(body), "encoding {enc:?}");
        }
        // A non-encoding token merely *containing* "gzip" must not
        // trigger gzip decoding (the old substring bug).
        let raw = b"not actually compressed";
        let tx = single_tx("not-gzip-at-all", raw);
        assert_eq!(tx.payload_size, raw.len(), "raw bytes kept");
        assert_eq!(tx.payload_digest, fnv1a(raw));
    }

    #[test]
    fn identity_encoding_is_a_no_op() {
        let raw = b"plain text body";
        let tx = single_tx("identity", raw);
        assert_eq!(tx.payload_size, raw.len());
        assert_eq!(tx.payload_digest, fnv1a(raw));
    }

    #[test]
    fn stacked_codings_unwrap_in_reverse_order() {
        let body = b"<html>double wrapped</html>";
        // Applied deflate-then-gzip on the wire ⇒ listed "deflate, gzip"
        // ⇒ decoder unwraps gzip first, then deflate.
        let wire = crate::flate::gzip_compress(&crate::flate::zlib_compress(body));
        let tx = single_tx("deflate, gzip", &wire);
        assert_eq!(tx.payload_size, body.len());
        assert_eq!(tx.payload_digest, fnv1a(body));
    }

    #[test]
    fn lenient_counts_deflate_failure_and_keeps_raw_bytes() {
        let garbage = [0x07, 0xff, 0x12, 0x34, 0x56];
        let req = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = resp_with_encoding("deflate", &garbage);
        let mut report = IngestReport::new();
        let txs = pair_lenient(
            &mk_stream(conn(), req, 0.0),
            Some(&mk_stream(conn().reversed(), &resp, 0.1)),
            &mut report,
        );
        assert_eq!(txs[0].payload_size, garbage.len(), "raw bytes kept");
        assert_eq!(report.deflate_failures, 1);
        assert_eq!(report.gzip_failures, 0);
    }

    #[test]
    fn corrupt_gzip_falls_back_to_raw_bytes() {
        let mut gz = crate::flate::gzip_compress(b"body");
        let mid = gz.len() / 2;
        gz[mid] ^= 1;
        let req = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
            gz.len()
        );
        let mut resp_bytes = resp.into_bytes();
        resp_bytes.extend_from_slice(&gz);
        let txs = pair(
            &mk_stream(conn(), req, 0.0),
            Some(&mk_stream(conn().reversed(), &resp_bytes, 0.1)),
        )
        .unwrap();
        assert_eq!(txs[0].payload_size, gz.len(), "raw bytes kept");
    }

    #[test]
    fn zip_bomb_keeps_encoded_bytes_and_counts_cap() {
        // ~44 KiB on the wire claiming ~8.6 MiB decoded — past
        // MAX_DECODED_BODY_BYTES. The trailer (CRC/ISIZE) is garbage,
        // which is fine: the guard must trip before it is ever checked.
        let reps = MAX_DECODED_BODY_BYTES / 258 + 2;
        let mut bomb = vec![0x1f, 0x8b, 0x08, 0x00, 0, 0, 0, 0, 0x00, 0xff];
        bomb.extend_from_slice(&crate::flate::deflate_run(b'A', reps * 258 + 1));
        bomb.extend_from_slice(&[0u8; 8]);
        assert!(bomb.len() < 64 * 1024, "bomb is small on the wire: {}", bomb.len());
        let req = b"GET /big HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = resp_with_encoding("gzip", &bomb);
        let mut report = IngestReport::new();
        let txs = pair_lenient(
            &mk_stream(conn(), req, 0.0),
            Some(&mk_stream(conn().reversed(), &resp, 0.1)),
            &mut report,
        );
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].payload_size, bomb.len(), "encoded wire bytes kept");
        assert_eq!(txs[0].payload_digest, fnv1a(&bomb));
        assert_eq!(report.decode_cap_exceeded, 1);
        assert_eq!(report.gzip_failures, 0, "a bomb is not a corrupt stream");
    }

    #[test]
    fn lenient_salvages_prefix_of_malformed_request_stream() {
        let req = b"GET /good HTTP/1.1\r\nHost: h\r\n\r\nGET /bad HTTP/1.1\r\nBROKENHEADER\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok";
        let req_stream = mk_stream(conn(), req, 1.0);
        let resp_stream = mk_stream(conn().reversed(), resp, 1.2);
        assert!(pair(&req_stream, Some(&resp_stream)).is_err(), "strict fails");
        let mut report = IngestReport::new();
        let txs = pair_lenient(&req_stream, Some(&resp_stream), &mut report);
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].uri, "/good");
        assert_eq!(txs[0].status, 200);
        assert_eq!(report.streams_salvaged, 1);
        assert_eq!(report.streams_discarded, 0);
    }

    #[test]
    fn lenient_discards_stream_with_nothing_recoverable() {
        // Begins like a request (passes the triage) but the head is
        // malformed from the first message.
        let req = b"GET /x HTTP/1.1\r\nNOCOLON\r\n\r\n";
        let req_stream = mk_stream(conn(), req, 1.0);
        let mut report = IngestReport::new();
        let txs = pair_lenient(&req_stream, None, &mut report);
        assert!(txs.is_empty());
        assert_eq!(report.streams_discarded, 1);
        assert_eq!(report.streams_salvaged, 0);
    }

    #[test]
    fn lenient_counts_chunked_framing_failure() {
        let req = b"GET /d HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nZZ\r\njunk";
        let req_stream = mk_stream(conn(), req, 0.0);
        let resp_stream = mk_stream(conn().reversed(), resp, 0.1);
        let mut report = IngestReport::new();
        let txs = pair_lenient(&req_stream, Some(&resp_stream), &mut report);
        // The request survives with no paired response (status 0).
        assert_eq!(txs.len(), 1);
        assert_eq!(txs[0].status, 0);
        assert_eq!(report.chunked_failures, 1);
        assert_eq!(report.streams_discarded, 1, "response stream yielded nothing");
    }

    #[test]
    fn lenient_counts_gzip_failure_and_keeps_raw_bytes() {
        let mut gz = crate::flate::gzip_compress(b"body");
        let mid = gz.len() / 2;
        gz[mid] ^= 1;
        let req = b"GET /x HTTP/1.1\r\nHost: h\r\n\r\n";
        let resp = format!(
            "HTTP/1.1 200 OK\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
            gz.len()
        );
        let mut resp_bytes = resp.into_bytes();
        resp_bytes.extend_from_slice(&gz);
        let mut report = IngestReport::new();
        let txs = pair_lenient(
            &mk_stream(conn(), req, 0.0),
            Some(&mk_stream(conn().reversed(), &resp_bytes, 0.1)),
            &mut report,
        );
        assert_eq!(txs[0].payload_size, gz.len());
        assert_eq!(report.gzip_failures, 1);
    }

    #[test]
    fn lenient_finish_counts_non_http_streams() {
        let mut ex = TransactionExtractor::new();
        // A TLS-looking stream on one connection, plus an orphan HTTP
        // response on another.
        let tls_key = conn();
        let orphan_key = FlowKey::new(
            Endpoint::new(Ipv4Addr::new(203, 0, 113, 9), 80),
            Endpoint::new(Ipv4Addr::new(10, 0, 0, 3), 50001),
        );
        ex.reassembler.push(
            0.1,
            tls_key,
            &crate::tcp::TcpSegment::parse(&crate::tcp::build(
                tls_key.src.port,
                tls_key.dst.port,
                1,
                0,
                crate::tcp::TcpFlags::data(),
                b"\x16\x03\x01\x02\x00",
            ))
            .unwrap(),
        );
        ex.reassembler.push(
            0.2,
            orphan_key,
            &crate::tcp::TcpSegment::parse(&crate::tcp::build(
                orphan_key.src.port,
                orphan_key.dst.port,
                1,
                0,
                crate::tcp::TcpFlags::data(),
                b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n",
            ))
            .unwrap(),
        );
        let mut report = IngestReport::new();
        let txs = ex.finish_lenient(&mut report);
        assert!(txs.is_empty());
        assert_eq!(report.streams_total, 2);
        assert_eq!(report.streams_skipped_non_http, 1);
        assert_eq!(report.streams_discarded, 1, "orphan response quarantined");
    }

    #[test]
    fn lenient_extract_counts_decode_drops() {
        let mut report = IngestReport::new();
        let packets = vec![
            Packet::new(0.0, vec![0u8; 4]),     // too short for Ethernet
            Packet::new(0.1, vec![0xffu8; 60]), // not IPv4
        ];
        let txs = TransactionExtractor::extract_lenient(&packets, &mut report);
        assert!(txs.is_empty());
        assert_eq!(report.packets_dropped_decode + report.packets_non_tcp, 2);
    }

    #[test]
    fn fnv_digest_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
        assert_eq!(fnv1a(b"payload"), fnv1a(b"payload"));
    }

    #[test]
    fn fnv1a_many_matches_sequential_digests() {
        let bodies: Vec<Vec<u8>> = vec![
            b"".to_vec(),
            b"a".to_vec(),
            (0u8..=255).cycle().take(1000).collect(),
            b"hello world".to_vec(),
            vec![0x4d; 7],
            (0u8..=255).cycle().take(4097).collect(),
            b"xy".to_vec(),
            b"".to_vec(),
            (1u8..=255).cycle().take(333).collect(),
        ];
        let refs: Vec<&[u8]> = bodies.iter().map(|b| b.as_slice()).collect();
        let mut out = Vec::new();
        fnv1a_many(&refs, &mut out);
        assert_eq!(out.len(), bodies.len());
        for (b, d) in bodies.iter().zip(&out) {
            assert_eq!(*d, fnv1a(b));
        }
        // Fewer than four non-empty bodies exercises the sequential tail.
        let small: Vec<&[u8]> = vec![b"one", b"two2"];
        fnv1a_many(&small, &mut out);
        assert_eq!(out, vec![fnv1a(b"one"), fnv1a(b"two2")]);
    }

    fn frame(
        src: Ipv4Addr,
        dst: Ipv4Addr,
        sp: u16,
        dp: u16,
        seq: u32,
        payload: &[u8],
    ) -> Vec<u8> {
        use crate::ether::MacAddr;
        let tcp = crate::tcp::build(sp, dp, seq, 0, crate::tcp::TcpFlags::data(), payload);
        let ip = crate::ipv4::build(src, dst, crate::ipv4::PROTO_TCP, 1, &tcp);
        let ipv4 = crate::ether::ETHERTYPE_IPV4;
        crate::ether::build(MacAddr::default(), MacAddr::default(), ipv4, &ip)
    }

    /// Two conversations plus out-of-order, retransmitted, and
    /// undecodable packets — every branch both pipelines must account
    /// identically.
    fn sample_capture() -> Vec<u8> {
        let c = Ipv4Addr::new(10, 0, 0, 2);
        let s = Ipv4Addr::new(203, 0, 113, 9);
        let req1 = b"GET /a.html HTTP/1.1\r\nHost: ex.com\r\n\r\n";
        let resp1 = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        let req2 = b"GET /b.js HTTP/1.1\r\nHost: ex.com\r\n\r\n";
        let resp2a: &[u8] = b"HTTP/1.1 302 Found\r\nLocation: http://n/\r\nContent-Le";
        let resp2b: &[u8] = b"ngth: 2\r\n\r\nok";
        let packets = vec![
            Packet::new(1.0, frame(c, s, 50000, 80, 1, req1)),
            Packet::new(1.1, frame(s, c, 80, 50000, 1, resp1)),
            Packet::new(1.2, frame(c, s, 50001, 80, 1, req2)),
            // Out-of-order second half, then the first, then a retransmit.
            Packet::new(1.4, frame(s, c, 80, 50001, 1 + resp2a.len() as u32, resp2b)),
            Packet::new(1.3, frame(s, c, 80, 50001, 1, resp2a)),
            Packet::new(1.5, frame(s, c, 80, 50001, 1, resp2a)),
            Packet::new(1.6, vec![0u8; 6]), // undecodable
        ];
        let mut buf = Vec::new();
        let mut w = crate::pcap::PcapWriter::new(&mut buf).unwrap();
        for p in &packets {
            w.write_packet(p).unwrap();
        }
        w.finish().unwrap();
        buf
    }

    #[test]
    fn span_pipeline_matches_packet_pipeline() {
        let capture = sample_capture();
        let mut report_a = IngestReport::new();
        let packets = crate::capture::read_packets_lenient(&capture, &mut report_a);
        let txs_a = TransactionExtractor::extract_lenient(&packets, &mut report_a);
        let mut report_b = IngestReport::new();
        let mut pipeline = SpanPipeline::new();
        let txs_b = pipeline.extract_lenient(&capture, &mut report_b);
        assert_eq!(report_a, report_b);
        assert_eq!(txs_a, txs_b);
        assert_eq!(txs_a.len(), 2);
        assert!(txs_a.iter().all(|t| t.status != 0 && t.payload_digest != 0));
        // Reusing the pipeline across captures leaks no state.
        let mut report_c = IngestReport::new();
        let txs_c = pipeline.extract_lenient(&capture, &mut report_c);
        assert_eq!(txs_c, txs_b);
        assert_eq!(report_c, report_b);
    }

    #[test]
    fn looks_like_request_discriminates() {
        assert!(looks_like_request(b"GET / HTTP/1.1\r\n"));
        assert!(looks_like_request(b"POST /x HTTP/1.1\r\n"));
        assert!(!looks_like_request(b"HTTP/1.1 200 OK\r\n"));
        assert!(!looks_like_request(b"\x16\x03\x01")); // TLS
    }
}
