//! The wire protocol: length-prefixed, CRC-framed, versioned binary
//! messages.
//!
//! Every frame on the wire is `[body_len: u32 LE][crc: u32 LE][body]`,
//! where `crc` is the CRC-32 of `body` (the same polynomial the block
//! store frames use, via [`viz_volume::crc32`]). The body opens with the
//! `b"VSRV"` magic, a `u16` protocol version, and a one-byte message tag,
//! followed by the tag-specific payload. Requests use tags `0x01..=0x09`,
//! responses mirror them at `0x81..=0x88`, and `0xFF` is the typed error
//! reply. Retired tags are never reused and decode as
//! [`ProtoError::UnknownTag`]: request `0x07` (a node-to-node forward),
//! request `0x06` with its response `0x86` (a shard-map exchange;
//! cluster maps are static now), and request `0x04` with its response
//! `0x84` (a generation bump; a `Fetch` carries its generation, and one
//! above the session's advances it). The cluster layer rides the same
//! version: `Ping`/`Pong` carry a router's liveness probes and its clock
//! samples, and nothing else.
//!
//! Corruption never panics: truncation, a flipped CRC byte, an unknown
//! tag, and version skew each map to a distinct [`ProtoError`] variant,
//! mirroring the persist codecs' corruption contract.
//!
//! ## What a block payload costs
//!
//! The frame CRC covers the whole body, payloads included, and the
//! receiver verifies it on every frame before parsing a byte. Almost all
//! of a `FetchReply` is `f32` payload (5–6 MB a frame in the benchmark
//! flights), so the codec is built around touching those bytes as few
//! times as possible. Its only `unsafe` is reached through `viz_volume`:
//! the byte views of [`viz_volume::le`] and the fast CRC kernel behind
//! [`viz_volume::crc32`].
//!
//! - **Encode** — no payload is copied. A response encodes to a
//!   `ReplyFrame`: one `head` buffer, sized exactly by one pass over the
//!   block list (a reply that would exceed [`MAX_FRAME_BYTES`] is replaced
//!   by an [`ERR_PROTO`] error frame *before* anything is allocated),
//!   holding the frame header and every key, status, length and error
//!   field, plus a clone of each pool `Arc<Vec<f32>>` and the offset it is
//!   sent at. The frame CRC is *joined*, not recomputed: the few head bytes
//!   between payloads are appended to a running CRC, and each payload is
//!   folded in from its own CRC with one GF(2) multiplication
//!   ([`viz_volume::checksum::crc32_combine_op`]). That per-payload CRC is
//!   [`BlockReply::crc`] — what the pool cached when the block was
//!   inserted — or, for a block that arrives without one, a single pass
//!   over its values. The length and CRC are patched into header bytes
//!   reserved at the front. For a reply of resident blocks that is
//!   O(blocks): one small allocation, no copy, no checksum pass. Debug
//!   builds check every joined CRC against a full pass over the body.
//!   [`encode_response`] is the same frame's segments concatenated;
//!   servers send the segments themselves.
//! - **Transport** — a server sends a reply's segments as they lie
//!   ([`crate::Transport::send_segments`]): `head` slices interleaved with
//!   [`viz_volume::le::f32_bytes`] views of the payloads, in vectored
//!   writes over TCP. [`crate::TcpTransport`] reads the body
//!   straight into unfilled capacity (no zero-fill pass).
//! - **Decode** — one CRC pass over the body, then each payload is one
//!   bounds check, one slice and one `memcpy` into its own `Vec<f32>`
//!   ([`viz_volume::le::get_f32s`]). Every count and length is still
//!   checked against the bytes left before anything is allocated.
//!
//! The receiver's CRC pass is the one that remains, and it is what makes
//! the hint safe: a wrong or stale [`BlockReply::crc`] produces a frame
//! the client refuses as [`ProtoError::BadCrc`]. On an x86_64 CPU with
//! `pclmulqdq` that pass is a carry-less-multiply fold at about 19 GB/s,
//! about 0.3 ms of a 5.5 MB reply; [`viz_volume::checksum`] has the
//! numbers.
//!
//! Every encoder closes its buffer through one routine, which refuses a
//! body over [`MAX_FRAME_BYTES`]: an oversize response of any kind goes
//! out as a typed [`ERR_PROTO`] error frame, an oversize request is
//! refused by [`try_encode_request`] (what the client, peer-link and
//! router senders use) before a byte is written.
//!
//! ## One version
//!
//! A build speaks exactly one version, [`PROTO_VERSION`], and every frame
//! it writes claims it. A frame claiming any other version, older or
//! newer, decodes to [`ProtoError::VersionSkew`]; a server answers it
//! with a [`Response::Error`] carrying [`ERR_VERSION`] and keeps the
//! connection, so the peer learns why instead of seeing a hang-up.

use std::fmt;
use std::io;
use std::sync::Arc;
use viz_telemetry::{EventKind, TraceEvent};
use viz_volume::checksum::{crc32_append, crc32_combine_op, crc32_f32s, crc32_shift_op};
use viz_volume::le::get_f32s;
use viz_volume::{crc32, BlockId, BlockKey};

/// Frame magic, first four body bytes.
pub const MAGIC: [u8; 4] = *b"VSRV";
/// The one protocol version this build speaks.
pub const PROTO_VERSION: u16 = 4;
/// Upper bound on one frame body; larger length prefixes are rejected
/// before any allocation.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

const TAG_OPEN: u8 = 0x01;
const TAG_CLOSE: u8 = 0x02;
const TAG_FETCH: u8 = 0x03;
// 0x04 is retired: never reuse it.
const TAG_STATS: u8 = 0x05;
// 0x06 and 0x07 are retired: never reuse them.
const TAG_PING: u8 = 0x08;
const TAG_TELEMETRY_GET: u8 = 0x09;
const TAG_OPEN_ACK: u8 = 0x81;
const TAG_CLOSE_ACK: u8 = 0x82;
const TAG_FETCH_REPLY: u8 = 0x83;
// 0x84 is retired: never reuse it.
const TAG_STATS_REPLY: u8 = 0x85;
// 0x86 is retired: never reuse it.
const TAG_PONG: u8 = 0x87;
const TAG_TELEMETRY_REPLY: u8 = 0x88;
const TAG_ERROR: u8 = 0xFF;

/// Distributed-trace context carried on `Fetch` frames: the 64-bit trace id minted by the originating client/Router
/// and the parent span id within that trace. All-zero ([`TraceCtx::NONE`])
/// means "untraced".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceCtx {
    /// Trace id (0 = none).
    pub trace: u64,
    /// Parent span id within the trace (0 = root).
    pub span: u64,
}

impl TraceCtx {
    /// The untraced context.
    pub const NONE: TraceCtx = TraceCtx { trace: 0, span: 0 };

    /// Whether this context names a trace.
    pub fn is_some(self) -> bool {
        self.trace != 0
    }
}

/// Wire error code: malformed frame or payload.
pub const ERR_PROTO: u16 = 1;
/// Wire error code: protocol version skew.
pub const ERR_VERSION: u16 = 2;
/// Wire error code: request named a session the registry does not know.
pub const ERR_UNKNOWN_SESSION: u16 = 3;
/// Wire error code: the registry is at its session cap.
pub(crate) const ERR_TOO_MANY_SESSIONS: u16 = 4;
/// Wire error code: the server is draining and rejects new work.
pub const ERR_DRAINING: u16 = 5;
// Wire error code 6 is retired (a shard-map request reached a server
// with no map): never reuse it.

/// Typed decode failure. Every corruption mode is a value, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtoError {
    /// Fewer bytes than the frame header or its length prefix promise.
    Truncated {
        /// Bytes the frame needed.
        need: usize,
        /// Bytes actually present.
        got: usize,
    },
    /// Length prefix beyond [`MAX_FRAME_BYTES`].
    TooLarge(usize),
    /// The stored CRC does not match the body.
    BadCrc {
        /// CRC-32 stored in the frame header.
        stored: u32,
        /// CRC-32 computed over the received body.
        computed: u32,
    },
    /// The body does not open with [`MAGIC`].
    BadMagic([u8; 4]),
    /// The frame's protocol version is not one this build speaks.
    VersionSkew {
        /// Version the peer sent.
        got: u16,
        /// Version this build supports.
        supported: u16,
    },
    /// A message tag outside the defined request/response sets.
    UnknownTag(u8),
    /// Structurally invalid payload under a valid header.
    Malformed(&'static str),
}

impl ProtoError {
    /// Wire error code a server embeds in its [`Response::Error`] reply.
    pub fn code(&self) -> u16 {
        match self {
            ProtoError::VersionSkew { .. } => ERR_VERSION,
            _ => ERR_PROTO,
        }
    }
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Truncated { need, got } => {
                write!(f, "truncated frame: need {need} bytes, got {got}")
            }
            ProtoError::TooLarge(n) => write!(f, "frame length {n} exceeds {MAX_FRAME_BYTES}"),
            ProtoError::BadCrc { stored, computed } => write!(
                f,
                "frame checksum mismatch (stored {stored:#010x}, computed {computed:#010x})"
            ),
            ProtoError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            ProtoError::VersionSkew { got, supported } => {
                write!(f, "protocol version skew: peer speaks v{got}, this build v{supported}")
            }
            ProtoError::UnknownTag(t) => write!(f, "unknown message tag {t:#04x}"),
            ProtoError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<ProtoError> for io::Error {
    fn from(e: ProtoError) -> Self {
        let kind = match e {
            ProtoError::Truncated { .. } => io::ErrorKind::UnexpectedEof,
            _ => io::ErrorKind::InvalidData,
        };
        io::Error::new(kind, e.to_string())
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Register a session; the reply carries its id.
    Open {
        /// Client-chosen display name (telemetry labels, diagnostics).
        name: String,
    },
    /// Unregister a session; queued prefetch for it is discarded.
    Close {
        /// Session to close.
        session: u32,
    },
    /// One frame's block wants: demand keys the frame renders from plus
    /// `(key, priority)` speculation for upcoming steps.
    Fetch {
        /// Requesting session.
        session: u32,
        /// Client frame generation. Above the session's, it advances the
        /// session first: queued prefetch from earlier generations is
        /// purged. Below it, the prefetches are stale and shed. The
        /// session's generation never falls.
        generation: u64,
        /// Demand keys (never shed, never downgraded).
        demand: Vec<BlockKey>,
        /// Prefetch keys with `T_important` priorities.
        prefetch: Vec<(BlockKey, f64)>,
        /// Trace context ([`TraceCtx::NONE`] when untraced).
        trace: TraceCtx,
    },
    /// Snapshot server + engine counters.
    Stats,
    /// Liveness probe: "are you there?" Sessionless, answered with
    /// [`Response::Pong`].
    Ping,
    /// Drain the responding node's telemetry plane — event rings (routed
    /// through the flight recorder's history on the way), per-span-kind
    /// summary histograms, and wire counters — in one round trip.
    TelemetryGet,
}

impl Request {
    /// The wire tag this request encodes with — the stable code the
    /// `RpcServe` telemetry span carries as its arg.
    pub(crate) fn tag_code(&self) -> u8 {
        match self {
            Request::Open { .. } => TAG_OPEN,
            Request::Close { .. } => TAG_CLOSE,
            Request::Fetch { .. } => TAG_FETCH,
            Request::Stats => TAG_STATS,
            Request::Ping => TAG_PING,
            Request::TelemetryGet => TAG_TELEMETRY_GET,
        }
    }

    /// The trace context a request carries ([`TraceCtx::NONE`] for
    /// untraced tags).
    pub(crate) fn trace_ctx(&self) -> TraceCtx {
        match self {
            Request::Fetch { trace, .. } => *trace,
            _ => TraceCtx::NONE,
        }
    }
}

/// One span kind's latency summary inside a [`Response::TelemetryReply`]:
/// the sparse wire form of a `viz_telemetry` log2 histogram (only
/// occupied buckets travel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// The span kind summarised; on the wire, its code (`kind as u8`).
    pub kind: EventKind,
    /// `(bucket index, count)` pairs for occupied buckets.
    pub pairs: Vec<(u16, u64)>,
    /// Total samples.
    pub count: u64,
    /// Sum of samples (ns).
    pub sum: u64,
    /// Smallest sample (ns); meaningless when `count == 0`.
    pub min: u64,
    /// Largest sample (ns).
    pub max: u64,
}

/// Payload of a [`Response::TelemetryReply`]: one node's telemetry drain.
#[derive(Debug, Clone, PartialEq)]
pub struct WireTelemetry {
    /// Cumulative ring-overflow drops on the responder.
    pub dropped: u64,
    /// Drained trace events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Per-span-kind latency summaries.
    pub hists: Vec<HistSnapshot>,
    /// Wire + engine counters, as in [`Response::StatsReply`].
    pub counters: Vec<(String, u64)>,
}

/// One demand key's outcome inside a [`Response::FetchReply`].
#[derive(Debug, Clone, PartialEq)]
pub struct BlockReply {
    /// The requested key.
    pub key: BlockKey,
    /// Payload on success, or a small error-kind code (see
    /// [`errkind_code`]) on failure.
    pub result: Result<Arc<Vec<f32>>, u16>,
    /// Encoder hint, never on the wire: the CRC-32 of the payload's
    /// little-endian bytes when the sender already has it (the server takes
    /// it from [`viz_fetch::BlockPool::crc_of`]), so the frame checksum
    /// needs no pass over the payload. `None` — what every decoder produces
    /// — makes the encoder take that pass. A wrong value yields a frame the
    /// receiver refuses as [`ProtoError::BadCrc`].
    pub crc: Option<u32>,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Session registered.
    OpenAck {
        /// Assigned session id.
        session: u32,
    },
    /// Session unregistered.
    CloseAck {
        /// The closed session.
        session: u32,
    },
    /// Demand outcomes plus the admission verdict on the prefetch list.
    FetchReply {
        /// Responding session.
        session: u32,
        /// One entry per demand key, in request order.
        blocks: Vec<BlockReply>,
        /// Prefetches rejected under pressure.
        shed: u32,
        /// Prefetches admitted at reduced priority.
        downgraded: u32,
    },
    /// Counter snapshot: serve-layer, engine, and pool gauges.
    StatsReply {
        /// `(name, value)` pairs.
        counters: Vec<(String, u64)>,
    },
    /// Heartbeat ack.
    Pong {
        /// Responder's telemetry clock at answer time. With the
        /// requester's local send/receive stamps this yields an
        /// RTT-midpoint clock-offset estimate.
        now_ns: u64,
    },
    /// One node's telemetry drain, answering
    /// [`Request::TelemetryGet`].
    TelemetryReply(WireTelemetry),
    /// Typed failure; the connection stays usable.
    Error {
        /// One of the `ERR_*` codes.
        code: u16,
        /// Human-readable context.
        message: String,
    },
}

/// Stable code for the `io::ErrorKind`s a [`BlockReply`] distinguishes
/// (0 = anything else), shared with the telemetry `FetchFail` arg.
pub fn errkind_code(kind: io::ErrorKind) -> u16 {
    match kind {
        io::ErrorKind::NotFound => 1,
        io::ErrorKind::InvalidData => 2,
        io::ErrorKind::Interrupted => 3,
        io::ErrorKind::TimedOut => 4,
        io::ErrorKind::WouldBlock => 5,
        _ => 0,
    }
}

fn put_u16(b: &mut Vec<u8>, v: u16) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

fn put_key(b: &mut Vec<u8>, k: BlockKey) {
    put_u16(b, k.var);
    put_u16(b, k.time);
    put_u32(b, k.block.0);
}

/// Bounds-checked little-endian reader over a frame body.
struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, at: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtoError> {
        if self.remaining() < n {
            return Err(ProtoError::Truncated { need: self.at + n, got: self.buf.len() });
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ProtoError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ProtoError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn key(&mut self) -> Result<BlockKey, ProtoError> {
        Ok(BlockKey::new(self.u16()?, self.u16()?, BlockId(self.u32()?)))
    }

    /// An [`EventKind`] code; one this build does not define is refused.
    fn kind(&mut self) -> Result<EventKind, ProtoError> {
        let code = self.u8()?;
        EventKind::ALL
            .get(code as usize)
            .copied()
            .ok_or(ProtoError::Malformed("unknown event kind code"))
    }

    /// Validate a declared element count against the bytes actually left,
    /// so a corrupt count cannot drive a huge allocation.
    fn count(&self, n: u32, elem_bytes: usize) -> Result<usize, ProtoError> {
        let n = n as usize;
        if n.saturating_mul(elem_bytes) > self.remaining() {
            return Err(ProtoError::Malformed("element count exceeds payload"));
        }
        Ok(n)
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.remaining() != 0 {
            return Err(ProtoError::Malformed("trailing bytes after payload"));
        }
        Ok(())
    }
}

/// Bytes of the outer `[len][crc]` header in front of every body.
const FRAME_HEADER_BYTES: usize = 8;

/// One encoded frame as the segments it goes out in: `head` holds every
/// byte the encoder wrote — the `[len][crc]` header, the body's fields, and
/// each block's key, status and length — and `payloads` the pool's buffers
/// themselves, each a clone of the reply's `Arc` (not a copy of its data)
/// and the offset into `head` it is sent at. On the wire a frame is
/// `head[..o1]`, payload 1, `head[o1..o2]`, …, `head[oN..]`
/// ([`ReplyFrame::segments`]); concatenated, those are the bytes
/// [`encode_response`] returns. Only a `FetchReply` has payloads, and only
/// on a little-endian target, where a payload's memory is its wire bytes;
/// everything else is one segment.
#[derive(Debug)]
pub(crate) struct ReplyFrame {
    head: Vec<u8>,
    payloads: Vec<(usize, Arc<Vec<f32>>)>,
}

impl ReplyFrame {
    /// The frame's bytes in wire order, `2 × payloads + 1` slices; a
    /// zero-length payload is an empty one.
    pub(crate) fn segments(&self) -> Vec<&[u8]> {
        let mut parts = Vec::with_capacity(2 * self.payloads.len() + 1);
        let mut from = 0;
        #[cfg(target_endian = "little")]
        for (at, data) in &self.payloads {
            parts.push(&self.head[from..*at]);
            parts.push(viz_volume::le::f32_bytes(data));
            from = *at;
        }
        parts.push(&self.head[from..]);
        parts
    }

    /// Bytes on the wire, header included.
    pub(crate) fn wire_len(&self) -> usize {
        self.head.len() + self.payloads.iter().map(|(_, p)| 4 * p.len()).sum::<usize>()
    }

    /// The frame as one buffer: `head` itself when there are no payloads,
    /// the segments concatenated otherwise.
    pub(crate) fn into_vec(self) -> Vec<u8> {
        if self.payloads.is_empty() {
            self.head
        } else {
            self.segments().concat()
        }
    }

    /// Queue `data` to go out at the end of `head` so far.
    fn push_payload(&mut self, data: &Arc<Vec<f32>>) {
        #[cfg(target_endian = "little")]
        self.payloads.push((self.head.len(), Arc::clone(data)));
        // A big-endian value's memory is not its wire bytes: copy them in.
        #[cfg(not(target_endian = "little"))]
        viz_volume::le::put_f32s(&mut self.head, data);
    }

    /// CRC-32 of the body, from the segments.
    fn body_crc(&self) -> u32 {
        let parts = self.segments();
        let body =
            std::iter::once(&parts[0][FRAME_HEADER_BYTES..]).chain(parts[1..].iter().copied());
        body.fold(0, crc32_append)
    }
}

/// Close a frame opened by [`body_header`]: patch the length and CRC of
/// the body it now holds into the header bytes reserved in front of it.
/// `crc` is the body's CRC where the caller already has it. A body longer
/// than [`MAX_FRAME_BYTES`] — every receiver would refuse it from its
/// header — is not framed; its length comes back instead.
fn frame(mut f: ReplyFrame, crc: Option<u32>) -> Result<ReplyFrame, usize> {
    let body_len = f.wire_len() - FRAME_HEADER_BYTES;
    if body_len > MAX_FRAME_BYTES {
        return Err(body_len);
    }
    let crc = match crc {
        Some(joined) => {
            debug_assert_eq!(joined, f.body_crc(), "a joined CRC equals one pass over the body");
            joined
        }
        None => f.body_crc(),
    };
    f.head[..4].copy_from_slice(&(body_len as u32).to_le_bytes());
    f.head[4..FRAME_HEADER_BYTES].copy_from_slice(&crc.to_le_bytes());
    Ok(f)
}

/// Validate the outer frame of `buf` and return its body.
pub(crate) fn frame_body(buf: &[u8]) -> Result<&[u8], ProtoError> {
    if buf.len() < 8 {
        return Err(ProtoError::Truncated { need: 8, got: buf.len() });
    }
    let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::TooLarge(len));
    }
    if buf.len() < 8 + len {
        return Err(ProtoError::Truncated { need: 8 + len, got: buf.len() });
    }
    let stored = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let body = &buf[8..8 + len];
    let computed = crc32(body);
    if stored != computed {
        return Err(ProtoError::BadCrc { stored, computed });
    }
    Ok(body)
}

/// The `[body_len]` a transport needs to finish reading a frame whose
/// first 8 header bytes are in `header`.
pub(crate) fn frame_body_len(header: &[u8; 8]) -> Result<usize, ProtoError> {
    let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::TooLarge(len));
    }
    Ok(len)
}

/// Bytes every body opens with: magic, version, tag.
const BODY_PREFIX_BYTES: usize = 7;

/// Open a frame: the outer header's bytes (zero until [`frame`] patches
/// them), then the body's magic, version and tag.
fn body_header(tag: u8) -> Vec<u8> {
    sized_body_header(tag, 64)
}

/// [`body_header`] for a head whose final length is known: the buffer
/// never regrows.
fn sized_body_header(tag: u8, body_len: usize) -> Vec<u8> {
    let mut b = Vec::with_capacity(FRAME_HEADER_BYTES + body_len);
    b.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    b.extend_from_slice(&MAGIC);
    put_u16(&mut b, PROTO_VERSION);
    b.push(tag);
    b
}

/// Exact lengths of a [`Response::FetchReply`] carrying `blocks` — its
/// body, and the part of it that is not payload — from one pass over the
/// list and before anything is allocated. Counted in `u64`: payloads can be
/// `Arc`-shared, so the wire size is not bounded by the memory the reply
/// occupies.
fn fetch_reply_sizes(blocks: &[BlockReply]) -> (u64, u64) {
    let (mut fields, mut payload) = ((BODY_PREFIX_BYTES + 4 * 4) as u64, 0u64);
    for br in blocks {
        // Key and status byte, then a counted payload or an error code.
        fields += match &br.result {
            Ok(data) => {
                payload += 4 * data.len() as u64;
                8 + 1 + 4
            }
            Err(_) => 8 + 1 + 2,
        };
    }
    (fields + payload, fields)
}

fn open_body(buf: &[u8]) -> Result<(u8, Reader<'_>), ProtoError> {
    let body = frame_body(buf)?;
    let mut r = Reader::new(body);
    let magic: [u8; 4] = r.take(4)?.try_into().unwrap();
    if magic != MAGIC {
        return Err(ProtoError::BadMagic(magic));
    }
    let version = r.u16()?;
    if version != PROTO_VERSION {
        return Err(ProtoError::VersionSkew { got: version, supported: PROTO_VERSION });
    }
    let tag = r.u8()?;
    Ok((tag, r))
}

fn put_trace(b: &mut Vec<u8>, t: TraceCtx) {
    put_u64(b, t.trace);
    put_u64(b, t.span);
}

fn read_trace(r: &mut Reader<'_>) -> Result<TraceCtx, ProtoError> {
    Ok(TraceCtx { trace: r.u64()?, span: r.u64()? })
}

/// Encode a request.
///
/// # Panics
/// When [`try_encode_request`] would refuse it (a `Fetch` with millions
/// of keys, an `Open` name over `u16::MAX` bytes), with the
/// same message. Senders of caller-sized requests use
/// [`try_encode_request`].
pub fn encode_request(req: &Request) -> Vec<u8> {
    request_frame(req).unwrap_or_else(|why| panic!("{why}"))
}

/// Encode a request for sending: one that cannot be framed — a body over
/// [`MAX_FRAME_BYTES`], or an `Open` name longer than its `u16` length
/// field — is refused as `InvalidInput` here, before a byte is written,
/// instead of reaching the receiver as a frame it must refuse or misread.
pub fn try_encode_request(req: &Request) -> io::Result<Vec<u8>> {
    request_frame(req).map_err(|why| io::Error::new(io::ErrorKind::InvalidInput, why))
}

/// The frame of `req`, or why it cannot be framed.
fn request_frame(req: &Request) -> Result<Vec<u8>, String> {
    let mut b;
    match req {
        Request::Open { name } => {
            let len = u16::try_from(name.len()).map_err(|_| {
                format!("session name of {} bytes exceeds the {}-byte limit", name.len(), u16::MAX)
            })?;
            b = body_header(TAG_OPEN);
            put_u16(&mut b, len);
            b.extend_from_slice(name.as_bytes());
        }
        Request::Close { session } => {
            b = body_header(TAG_CLOSE);
            put_u32(&mut b, *session);
        }
        Request::Fetch { session, generation, demand, prefetch, trace } => {
            b = body_header(TAG_FETCH);
            put_u32(&mut b, *session);
            put_u64(&mut b, *generation);
            put_u32(&mut b, demand.len() as u32);
            for &k in demand {
                put_key(&mut b, k);
            }
            put_u32(&mut b, prefetch.len() as u32);
            for &(k, pri) in prefetch {
                put_key(&mut b, k);
                put_u64(&mut b, pri.to_bits());
            }
            put_trace(&mut b, *trace);
        }
        Request::Stats => {
            b = body_header(TAG_STATS);
        }
        Request::Ping => {
            b = body_header(TAG_PING);
        }
        Request::TelemetryGet => {
            b = body_header(TAG_TELEMETRY_GET);
        }
    }
    let framed = frame(ReplyFrame { head: b, payloads: Vec::new() }, None);
    framed.map(ReplyFrame::into_vec).map_err(|body_len| {
        format!(
            "request of {body_len} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit; send \
             fewer keys per request"
        )
    })
}

/// Decode a request frame.
pub fn decode_request(buf: &[u8]) -> Result<Request, ProtoError> {
    let (tag, mut r) = open_body(buf)?;
    let req = match tag {
        TAG_OPEN => {
            let n = r.u16()? as usize;
            let bytes = r.take(n)?;
            let name = std::str::from_utf8(bytes)
                .map_err(|_| ProtoError::Malformed("session name is not UTF-8"))?
                .to_string();
            Request::Open { name }
        }
        TAG_CLOSE => Request::Close { session: r.u32()? },
        TAG_FETCH => {
            let session = r.u32()?;
            let generation = r.u64()?;
            let nd = r.u32()?;
            let nd = r.count(nd, 8)?;
            let mut demand = Vec::with_capacity(nd);
            for _ in 0..nd {
                demand.push(r.key()?);
            }
            let np = r.u32()?;
            let np = r.count(np, 16)?;
            let mut prefetch = Vec::with_capacity(np);
            for _ in 0..np {
                let k = r.key()?;
                prefetch.push((k, f64::from_bits(r.u64()?)));
            }
            let trace = read_trace(&mut r)?;
            Request::Fetch { session, generation, demand, prefetch, trace }
        }
        TAG_STATS => Request::Stats,
        TAG_PING => Request::Ping,
        TAG_TELEMETRY_GET => Request::TelemetryGet,
        t => return Err(ProtoError::UnknownTag(t)),
    };
    r.finish()?;
    Ok(req)
}

/// Encode a response: the segments `encode_reply_frame` splits it into,
/// concatenated.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode_reply_frame(resp).into_vec()
}

/// Encode a response as segments: the one response encoder, which
/// [`encode_response`] concatenates. A `FetchReply` costs O(blocks) here:
/// no payload is copied and none is checksummed if its [`BlockReply::crc`]
/// is known.
pub(crate) fn encode_reply_frame(resp: &Response) -> ReplyFrame {
    let mut b;
    match resp {
        Response::OpenAck { session } => {
            b = body_header(TAG_OPEN_ACK);
            put_u32(&mut b, *session);
        }
        Response::CloseAck { session } => {
            b = body_header(TAG_CLOSE_ACK);
            put_u32(&mut b, *session);
        }
        Response::FetchReply { session, blocks, shed, downgraded } => {
            let (body_len, fields_len) = fetch_reply_sizes(blocks);
            if body_len > MAX_FRAME_BYTES as u64 {
                // Refused from the sizes alone, before anything is allocated.
                return oversize_response(body_len);
            }
            // The head holds every byte but the payloads, which stay in the
            // pool's buffers (a big-endian head copies them in and regrows).
            let mut f = ReplyFrame {
                head: sized_body_header(TAG_FETCH_REPLY, fields_len as usize),
                payloads: Vec::with_capacity(blocks.len()),
            };
            put_u32(&mut f.head, *session);
            put_u32(&mut f.head, *shed);
            put_u32(&mut f.head, *downgraded);
            put_u32(&mut f.head, blocks.len() as u32);
            // The frame CRC is joined as the head is written: `joined`
            // covers the body up to `mark`; the small fields since then
            // are appended to it, a payload is folded in from its own CRC
            // (the reply's hint, or one pass here) without being re-read.
            let (mut joined, mut mark) = (0u32, FRAME_HEADER_BYTES);
            // Consecutive payloads are nearly always the same length.
            let (mut op_len, mut op) = (0usize, crc32_shift_op(0));
            for br in blocks {
                put_key(&mut f.head, br.key);
                match &br.result {
                    Ok(data) => {
                        f.head.push(0);
                        put_u32(&mut f.head, data.len() as u32);
                        joined = crc32_append(joined, &f.head[mark..]);
                        f.push_payload(data);
                        mark = f.head.len();
                        if op_len != data.len() {
                            (op_len, op) = (data.len(), crc32_shift_op(4 * data.len() as u64));
                        }
                        let payload = br.crc.unwrap_or_else(|| crc32_f32s(data));
                        joined = crc32_combine_op(joined, payload, op);
                    }
                    Err(code) => {
                        f.head.push(1);
                        put_u16(&mut f.head, *code);
                    }
                }
            }
            debug_assert_eq!(f.wire_len() as u64, FRAME_HEADER_BYTES as u64 + body_len);
            let crc = crc32_append(joined, &f.head[mark..]);
            return frame(f, Some(crc)).expect("the size was checked before encoding");
        }
        Response::StatsReply { counters } => {
            b = body_header(TAG_STATS_REPLY);
            put_u32(&mut b, counters.len() as u32);
            for (name, value) in counters {
                put_u16(&mut b, name.len() as u16);
                b.extend_from_slice(name.as_bytes());
                put_u64(&mut b, *value);
            }
        }
        Response::Pong { now_ns } => {
            b = body_header(TAG_PONG);
            put_u64(&mut b, *now_ns);
        }
        Response::TelemetryReply(t) => {
            b = body_header(TAG_TELEMETRY_REPLY);
            put_u64(&mut b, t.dropped);
            put_u32(&mut b, t.events.len() as u32);
            for e in &t.events {
                put_u64(&mut b, e.t_ns);
                put_u64(&mut b, e.dur_ns);
                put_u64(&mut b, e.key);
                put_u64(&mut b, e.arg);
                put_u64(&mut b, e.trace);
                b.push(e.kind as u8);
                put_u16(&mut b, e.tid);
                put_u16(&mut b, e.node);
            }
            put_u32(&mut b, t.hists.len() as u32);
            for h in &t.hists {
                b.push(h.kind as u8);
                put_u64(&mut b, h.count);
                put_u64(&mut b, h.sum);
                put_u64(&mut b, h.min);
                put_u64(&mut b, h.max);
                put_u32(&mut b, h.pairs.len() as u32);
                for &(i, c) in &h.pairs {
                    put_u16(&mut b, i);
                    put_u64(&mut b, c);
                }
            }
            put_u32(&mut b, t.counters.len() as u32);
            for (name, value) in &t.counters {
                put_u16(&mut b, name.len() as u16);
                b.extend_from_slice(name.as_bytes());
                put_u64(&mut b, *value);
            }
        }
        Response::Error { code, message } => {
            b = body_header(TAG_ERROR);
            put_u16(&mut b, *code);
            put_u16(&mut b, message.len() as u16);
            b.extend_from_slice(message.as_bytes());
        }
    }
    frame(ReplyFrame { head: b, payloads: Vec::new() }, None)
        .unwrap_or_else(|body_len| oversize_response(body_len as u64))
}

/// What is sent in place of a response whose body would exceed
/// [`MAX_FRAME_BYTES`]: every receiver refuses such a frame from its header
/// and a stream transport is then out of step mid-body, so answer with
/// what the client can act on instead.
fn oversize_response(body_len: u64) -> ReplyFrame {
    let message = format!(
        "reply of {body_len} bytes exceeds the {MAX_FRAME_BYTES}-byte frame limit; ask for less \
         per request"
    );
    encode_reply_frame(&Response::Error { code: ERR_PROTO, message })
}

/// Decode a response frame.
pub fn decode_response(buf: &[u8]) -> Result<Response, ProtoError> {
    let (tag, mut r) = open_body(buf)?;
    let resp = match tag {
        TAG_OPEN_ACK => Response::OpenAck { session: r.u32()? },
        TAG_CLOSE_ACK => Response::CloseAck { session: r.u32()? },
        TAG_FETCH_REPLY => {
            let session = r.u32()?;
            let shed = r.u32()?;
            let downgraded = r.u32()?;
            let n = r.u32()?;
            let n = r.count(n, 9)?;
            let mut blocks = Vec::with_capacity(n);
            for _ in 0..n {
                let key = r.key()?;
                let result = match r.u8()? {
                    0 => {
                        let len = r.u32()?;
                        let len = r.count(len, 4)?;
                        Ok(Arc::new(get_f32s(r.take(len * 4)?)))
                    }
                    1 => Err(r.u16()?),
                    _ => return Err(ProtoError::Malformed("bad block status byte")),
                };
                blocks.push(BlockReply { key, result, crc: None });
            }
            Response::FetchReply { session, blocks, shed, downgraded }
        }
        TAG_STATS_REPLY => {
            let n = r.u32()?;
            let n = r.count(n, 10)?;
            let mut counters = Vec::with_capacity(n);
            for _ in 0..n {
                let len = r.u16()? as usize;
                let name = std::str::from_utf8(r.take(len)?)
                    .map_err(|_| ProtoError::Malformed("counter name is not UTF-8"))?
                    .to_string();
                counters.push((name, r.u64()?));
            }
            Response::StatsReply { counters }
        }
        TAG_PONG => Response::Pong { now_ns: r.u64()? },
        TAG_TELEMETRY_REPLY => {
            let dropped = r.u64()?;
            let ne = r.u32()?;
            let ne = r.count(ne, 45)?;
            let mut events = Vec::with_capacity(ne);
            for _ in 0..ne {
                let t_ns = r.u64()?;
                let dur_ns = r.u64()?;
                let key = r.u64()?;
                let arg = r.u64()?;
                let trace = r.u64()?;
                let kind = r.kind()?;
                let tid = r.u16()?;
                let enode = r.u16()?;
                events.push(TraceEvent { t_ns, dur_ns, key, arg, trace, kind, tid, node: enode });
            }
            let nh = r.u32()?;
            let nh = r.count(nh, 37)?;
            let mut hists = Vec::with_capacity(nh);
            for _ in 0..nh {
                let kind = r.kind()?;
                let count = r.u64()?;
                let sum = r.u64()?;
                let min = r.u64()?;
                let max = r.u64()?;
                let np = r.u32()?;
                let np = r.count(np, 10)?;
                let mut pairs = Vec::with_capacity(np);
                for _ in 0..np {
                    let i = r.u16()?;
                    pairs.push((i, r.u64()?));
                }
                hists.push(HistSnapshot { kind, pairs, count, sum, min, max });
            }
            let nc = r.u32()?;
            let nc = r.count(nc, 10)?;
            let mut counters = Vec::with_capacity(nc);
            for _ in 0..nc {
                let len = r.u16()? as usize;
                let name = std::str::from_utf8(r.take(len)?)
                    .map_err(|_| ProtoError::Malformed("counter name is not UTF-8"))?
                    .to_string();
                counters.push((name, r.u64()?));
            }
            Response::TelemetryReply(WireTelemetry { dropped, events, hists, counters })
        }
        TAG_ERROR => {
            let code = r.u16()?;
            let len = r.u16()? as usize;
            let message = std::str::from_utf8(r.take(len)?)
                .map_err(|_| ProtoError::Malformed("error message is not UTF-8"))?
                .to_string();
            Response::Error { code, message }
        }
        t => return Err(ProtoError::UnknownTag(t)),
    };
    r.finish()?;
    Ok(resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u32) -> BlockKey {
        BlockKey::new(1, 2, BlockId(i))
    }

    fn ctx(trace: u64, span: u64) -> TraceCtx {
        TraceCtx { trace, span }
    }

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Open { name: "viewer-a".into() },
            Request::Close { session: 7 },
            Request::Fetch {
                session: 7,
                generation: 41,
                demand: vec![key(0), key(5)],
                prefetch: vec![(key(9), 2.25), (key(10), 0.0)],
                trace: ctx(0xABCD_EF01_2345_6789, 77),
            },
            Request::Stats,
            Request::Ping,
            Request::TelemetryGet,
        ]
    }

    fn sample_responses() -> Vec<Response> {
        vec![
            Response::OpenAck { session: 3 },
            Response::CloseAck { session: 3 },
            Response::FetchReply {
                session: 3,
                blocks: vec![
                    BlockReply { key: key(0), result: Ok(Arc::new(vec![1.0, -2.5])), crc: None },
                    BlockReply { key: key(5), result: Err(1), crc: None },
                ],
                shed: 4,
                downgraded: 2,
            },
            Response::StatsReply {
                counters: vec![("serve_sessions_opened".into(), 3), ("x".into(), 0)],
            },
            Response::Pong { now_ns: 123_456_789 },
            Response::TelemetryReply(WireTelemetry {
                dropped: 5,
                events: vec![TraceEvent {
                    t_ns: 100,
                    dur_ns: 40,
                    key: 0xFEED,
                    arg: 1,
                    trace: 0xABCD,
                    kind: EventKind::SourceRead,
                    tid: 3,
                    node: 3,
                }],
                hists: vec![HistSnapshot {
                    kind: EventKind::FetchService,
                    pairs: vec![(10, 4), (31, 1)],
                    count: 5,
                    sum: 1_000,
                    min: 12,
                    max: 600,
                }],
                counters: vec![("serve_requests".into(), 17)],
            }),
            Response::Error { code: ERR_DRAINING, message: "draining".into() },
        ]
    }

    #[test]
    fn request_roundtrip_every_variant() {
        for req in sample_requests() {
            let frame = encode_request(&req);
            assert_eq!(decode_request(&frame).unwrap(), req, "roundtrip failed for {req:?}");
        }
    }

    #[test]
    fn response_roundtrip_every_variant() {
        for resp in sample_responses() {
            let frame = encode_response(&resp);
            assert_eq!(decode_response(&frame).unwrap(), resp, "roundtrip failed for {resp:?}");
        }
    }

    #[test]
    fn version_skew_is_typed() {
        // Every version but the one spoken is skew, the retired v1, v2 and
        // v3 included.
        for version in [0, 1, 2, PROTO_VERSION - 1, PROTO_VERSION + 1] {
            let mut body = encode_request(&Request::Stats)[8..].to_vec();
            body[4..6].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                decode_request(&framed(&body)).unwrap_err(),
                ProtoError::VersionSkew { got: version, supported: PROTO_VERSION }
            );
        }
    }

    #[test]
    fn trace_context_rides_only_fetch_frames() {
        let fetch = Request::Fetch {
            session: 4,
            generation: 0,
            demand: vec![key(1)],
            prefetch: vec![(key(2), 0.5)],
            trace: ctx(0xD00D, 42),
        };
        let got = decode_request(&encode_request(&fetch)).unwrap();
        assert_eq!(got.trace_ctx(), ctx(0xD00D, 42));
        assert_eq!(got, fetch);
        for req in sample_requests() {
            let carries = matches!(req, Request::Fetch { .. });
            assert_eq!(req.trace_ctx() != TraceCtx::NONE, carries, "{req:?}");
        }
    }

    #[test]
    fn truncation_and_crc_flips_are_typed() {
        let frame = encode_request(&sample_requests()[2]);
        assert!(matches!(
            decode_request(&frame[..frame.len() - 1]).unwrap_err(),
            ProtoError::Truncated { .. }
        ));
        assert!(matches!(decode_request(&frame[..3]).unwrap_err(), ProtoError::Truncated { .. }));
        let mut crc_flip = frame.clone();
        crc_flip[5] ^= 0x10;
        assert!(matches!(decode_request(&crc_flip).unwrap_err(), ProtoError::BadCrc { .. }));
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    /// `[len][crc][body]` assembled the long way round, independent of
    /// `body_header`/`frame`.
    fn framed(body: &[u8]) -> Vec<u8> {
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&crc32(body).to_le_bytes());
        f.extend_from_slice(body);
        f
    }

    /// `frame` with its body's version field set to `version` and a fresh
    /// CRC.
    fn reversioned(frame: &[u8], version: u16) -> Vec<u8> {
        let mut body = frame[8..].to_vec();
        body[4..6].copy_from_slice(&version.to_le_bytes());
        framed(&body)
    }

    /// Frames printed by the encoders as they stood before the payload fast
    /// path (commit a1655a2), when the protocol was v2: bulk copies and
    /// in-place framing must not move a byte. The current frames are the
    /// v2 ones with the version field raised, so the `Fetch` and
    /// `FetchReply` layouts are unchanged since v2, and the v2 bytes, and
    /// the v3 ones derived the same way, are version skew.
    #[test]
    fn golden_frames_from_the_previous_encoders() {
        let skew = ProtoError::VersionSkew { got: 2, supported: PROTO_VERSION };
        let v3_skew = ProtoError::VersionSkew { got: 3, supported: PROTO_VERSION };
        let reply = Response::FetchReply {
            session: 3,
            blocks: vec![
                BlockReply { key: key(0), result: Ok(Arc::new(vec![1.0, -2.5, 0.0])), crc: None },
                BlockReply { key: key(5), result: Err(1), crc: None },
                BlockReply {
                    key: key(9),
                    result: Ok(Arc::new(vec![f32::MIN_POSITIVE, 1e30, -0.0, 3.25, 7.0])),
                    crc: None,
                },
            ],
            shed: 4,
            downgraded: 2,
        };
        let golden_v2 = unhex(concat!(
            "5c000000fd99d979565352560200830300000004000000020000000300000001",
            "0002000000000000030000000000803f000020c0000000000100020005000000",
            "0101000100020009000000000500000000008000caf249710000008000005040",
            "0000e040",
        ));
        assert_eq!(decode_response(&golden_v2).unwrap_err(), skew);
        assert_eq!(decode_response(&reversioned(&golden_v2, 3)).unwrap_err(), v3_skew);
        let golden = reversioned(&golden_v2, PROTO_VERSION);
        assert_eq!(encode_response(&reply), golden);
        assert_eq!(decode_response(&golden).unwrap(), reply);

        let fetch = sample_requests().swap_remove(2);
        let golden_v2 = unhex(concat!(
            "5b00000070c26bbf565352560200030700000029000000000000000200000001",
            "0002000000000001000200050000000200000001000200090000000000000000",
            "000240010002000a00000000000000000000008967452301efcdab4d00000000",
            "000000",
        ));
        assert_eq!(decode_request(&golden_v2).unwrap_err(), skew);
        assert_eq!(decode_request(&reversioned(&golden_v2, 3)).unwrap_err(), v3_skew);
        let golden = reversioned(&golden_v2, PROTO_VERSION);
        assert_eq!(encode_request(&fetch), golden);
        assert_eq!(decode_request(&golden).unwrap(), fetch);
    }

    #[test]
    fn every_frame_is_len_crc_body() {
        for frame in sample_requests()
            .iter()
            .map(encode_request)
            .chain(sample_responses().iter().map(encode_response))
        {
            assert_eq!(frame, framed(&frame[8..]));
        }
    }

    #[test]
    fn payload_bits_survive_the_wire() {
        // -0.0, a subnormal, ±inf, a quiet and a signalling NaN.
        let bits =
            [0x8000_0000u32, 0x0000_0001, 0x7F80_0000, 0xFF80_0000, 0x7FC0_0000, 0x7FA0_0001];
        let data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let reply = Response::FetchReply {
            session: 1,
            blocks: vec![BlockReply { key: key(0), result: Ok(Arc::new(data)), crc: None }],
            shed: 0,
            downgraded: 0,
        };
        match decode_response(&encode_response(&reply)).unwrap() {
            Response::FetchReply { blocks, .. } => {
                let got = blocks[0].result.as_ref().unwrap();
                assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    fn shared_reply(payload: &Arc<Vec<f32>>, shares: u32, fillers: &[usize]) -> Response {
        let shared =
            (0..shares).map(|i| BlockReply { key: key(i), result: Ok(payload.clone()), crc: None });
        let fillers = fillers.iter().map(|&n| BlockReply {
            key: key(99),
            result: Ok(Arc::new(vec![0.5; n])),
            crc: None,
        });
        Response::FetchReply {
            session: 3,
            blocks: shared.chain(fillers).collect(),
            shed: 0,
            downgraded: 0,
        }
    }

    #[test]
    fn oversize_fetch_reply_becomes_a_typed_error_frame() {
        // 17 blocks sharing one 4 MiB payload: 68 MiB on the wire, 4 MiB
        // here. The encoder must notice from the sizes alone.
        let payload = Arc::new(vec![1.0f32; 1 << 20]);
        let frame = encode_response(&shared_reply(&payload, 17, &[]));
        assert!(frame.len() < 256, "an error frame, not {} bytes of payload", frame.len());
        frame_body(&frame).expect("a valid frame");
        match decode_response(&frame).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ERR_PROTO);
                assert!(message.contains(&(MAX_FRAME_BYTES.to_string())), "{message}");
                assert!(message.contains("71303412"), "names the size: {message}");
            }
            other => panic!("wanted an Error, got {other:?}"),
        }
        // The limit itself is still a legal frame; one byte more is not.
        // Body = 23 + 16 × (13 + 4n) + fillers, n = 1_048_572.
        let payload = Arc::new(vec![2.0f32; (1 << 20) - 4]);
        let at_limit = shared_reply(&payload, 16, &[3]);
        let frame = encode_response(&at_limit);
        assert_eq!(frame.len(), 8 + MAX_FRAME_BYTES);
        assert_eq!(decode_response(&frame).unwrap(), at_limit);
        drop(frame);
        let over_by_one = encode_response(&shared_reply(&payload, 16, &[0, 0]));
        assert!(matches!(
            decode_response(&over_by_one),
            Ok(Response::Error { code: ERR_PROTO, .. })
        ));
    }

    #[test]
    fn oversize_response_of_any_kind_becomes_a_typed_error_frame() {
        // 1,025 counters with the longest name a `u16` length counts: each
        // is 2 + 65,535 + 8 bytes on the wire, 64.1 MiB in all.
        let name = "c".repeat(usize::from(u16::MAX));
        let counters = vec![(name, 7u64); 1025];
        let frame = encode_response(&Response::StatsReply { counters });
        assert!(frame.len() < 256, "an error frame, not {} bytes of counters", frame.len());
        assert_eq!(frame, framed(&frame[8..]));
        match decode_response(&frame).unwrap() {
            Response::Error { code, message } => {
                assert_eq!(code, ERR_PROTO);
                assert!(message.contains(&MAX_FRAME_BYTES.to_string()), "{message}");
                // 7 prefix + count + the counters.
                let body_len = 7 + 4 + 1025 * (2 + usize::from(u16::MAX) + 8);
                assert!(body_len > MAX_FRAME_BYTES);
                assert!(message.contains(&body_len.to_string()), "names the size: {message}");
            }
            other => panic!("wanted an Error, got {other:?}"),
        }
    }

    #[test]
    fn oversize_request_is_refused_not_framed() {
        // 8 bytes a key on the wire: one key past what the limit holds.
        let demand = vec![key(1); MAX_FRAME_BYTES / 8];
        let req = Request::Fetch {
            session: 1,
            generation: 0,
            demand,
            prefetch: Vec::new(),
            trace: TraceCtx::NONE,
        };
        let err = try_encode_request(&req).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(&MAX_FRAME_BYTES.to_string()), "{err}");
        // A name its `u16` length field cannot count is refused, not
        // framed with a wrapped length; `encode_request` panics saying so.
        let long = Request::Open { name: "n".repeat(70_000) };
        let err = try_encode_request(&long).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("70000"), "{err}");
        let panic = std::panic::catch_unwind(|| encode_request(&long)).unwrap_err();
        assert_eq!(panic.downcast_ref::<String>(), Some(&err.to_string()));
        // A request that fits is the frame `encode_request` builds.
        let small = sample_requests().swap_remove(2);
        assert_eq!(try_encode_request(&small).unwrap(), encode_request(&small));
    }

    /// A reply's segments, joined, are a frame whose header holds the
    /// body's length and CRC — asserted here, so release builds, which
    /// compile the encoder's debug cross-check out, check it too — the same
    /// frame with or without hints, and one the receiver decodes back; each
    /// payload segment is the pool's buffer itself.
    #[test]
    fn fetch_reply_header_crc_is_the_crc_of_the_body_with_or_without_hints() {
        use viz_geom::rng::for_cases;
        for_cases(0x4A01_2024, 192, |rng, case| {
            let n = if case == 0 { 0 } else { rng.index(0..41) };
            // Hints on every payload, on none, or on some.
            let hints = case % 3;
            let mut len = rng.index(0..40);
            let mut sent: Vec<Arc<Vec<f32>>> = Vec::new();
            let blocks: Vec<BlockReply> = (0..n as u32)
                .map(|i| {
                    if rng.below(4) == 0 {
                        return BlockReply {
                            key: key(i),
                            result: Err(rng.below(6) as u16),
                            crc: None,
                        };
                    }
                    let hinted = hints == 0 || (hints == 2 && rng.below(2) == 0);
                    // The pool hands one `Arc` to every block that asks for it.
                    if !sent.is_empty() && rng.below(5) == 0 {
                        let data = sent[rng.index(0..sent.len())].clone();
                        let crc = hinted.then(|| crc32_f32s(&data));
                        return BlockReply { key: key(i), result: Ok(data), crc };
                    }
                    // Mostly runs of one length, as a brick layout gives.
                    match rng.below(4) {
                        0 => len = rng.index(0..600),
                        1 => len = 0,
                        _ => {}
                    }
                    let data: Vec<f32> =
                        (0..len).map(|_| f32::from_bits(rng.next_u64() as u32)).collect();
                    let crc = hinted.then(|| crc32_f32s(&data));
                    sent.push(Arc::new(data));
                    BlockReply { key: key(i), result: Ok(sent[sent.len() - 1].clone()), crc }
                })
                .collect();
            let reply =
                |blocks| Response::FetchReply { session: 9, blocks, shed: 1, downgraded: 2 };
            let unhinted =
                reply(blocks.iter().map(|b| BlockReply { crc: None, ..b.clone() }).collect());
            let reply = reply(blocks);
            let frame = encode_reply_frame(&reply);
            let parts = frame.segments();
            let joined = parts.concat();
            assert_eq!(joined.len(), frame.wire_len());
            assert!(joined == framed(&joined[8..]), "header == [len][crc32(body)]");
            assert!(joined == encode_response(&unhinted));
            #[cfg(target_endian = "little")]
            {
                let Response::FetchReply { blocks, .. } = &reply else { unreachable!() };
                let payloads = blocks.iter().filter_map(|b| b.result.as_ref().ok());
                assert_eq!(parts.len(), 2 * payloads.clone().count() + 1);
                for (seg, data) in parts.iter().skip(1).step_by(2).zip(payloads) {
                    let view = (data.as_ptr().cast::<u8>(), 4 * data.len());
                    assert_eq!((seg.as_ptr(), seg.len()), view, "the pool's buffer, not a copy");
                }
            }
            // Payloads hold NaNs, so compare through the bytes.
            let decoded = decode_response(&joined).expect("the receiver accepts the frame");
            assert!(encode_response(&decoded) == joined);
        });
    }

    #[test]
    fn response_decode_guards_are_typed() {
        let good = encode_response(&sample_responses()[2]);
        let body = &good[8..];
        let with = |edit: &dyn Fn(&mut Vec<u8>)| {
            let mut b = body.to_vec();
            edit(&mut b);
            decode_response(&framed(&b)).unwrap_err()
        };
        assert_eq!(with(&|b| b[0] = b'X'), ProtoError::BadMagic(*b"XSRV"));
        assert_eq!(with(&|b| b[6] = 0x7E), ProtoError::UnknownTag(0x7E));
        // Retired tags are never reused: requests 0x04, 0x06 and 0x07,
        // responses 0x84 and 0x86.
        for tag in [0x04, 0x06, 0x07] {
            let mut retired = encode_request(&sample_requests()[2])[8..].to_vec();
            retired[6] = tag;
            assert_eq!(decode_request(&framed(&retired)).unwrap_err(), ProtoError::UnknownTag(tag));
        }
        for tag in [0x84, 0x86] {
            assert_eq!(with(&|b| b[6] = tag), ProtoError::UnknownTag(tag));
        }
        assert_eq!(with(&|b| b.push(0)), ProtoError::Malformed("trailing bytes after payload"));
        // Body layout: 7 prefix, session/shed/downgraded, then the block
        // count at 19, the first block's status at 31 and length at 32.
        assert_eq!(
            with(&|b| b[19..23].copy_from_slice(&u32::MAX.to_le_bytes())),
            ProtoError::Malformed("element count exceeds payload")
        );
        assert_eq!(with(&|b| b[31] = 2), ProtoError::Malformed("bad block status byte"));
        assert_eq!(
            with(&|b| b[32..36].copy_from_slice(&0x4000_0000u32.to_le_bytes())),
            ProtoError::Malformed("element count exceeds payload"),
            "a payload length the body cannot hold is refused before allocation"
        );
        // One byte short of the last block's error code: the counts hold, the
        // field does not.
        assert_eq!(with(&|b| b.truncate(54)), ProtoError::Truncated { need: 55, got: 54 });
        // A histogram's kind code is checked as an event's is. Telemetry body
        // layout: 7 prefix, dropped, event count 0, histogram count, then the
        // first histogram's kind code at 23.
        let hist = HistSnapshot {
            kind: EventKind::SourceRead,
            pairs: vec![(3, 1)],
            count: 1,
            sum: 9,
            min: 9,
            max: 9,
        };
        let reply =
            WireTelemetry { dropped: 0, events: vec![], hists: vec![hist], counters: vec![] };
        let mut body = encode_response(&Response::TelemetryReply(reply))[8..].to_vec();
        assert_eq!(body[23], EventKind::SourceRead as u8);
        body[23] = EventKind::ALL.len() as u8;
        assert_eq!(
            decode_response(&framed(&body)).unwrap_err(),
            ProtoError::Malformed("unknown event kind code")
        );
    }

    #[test]
    fn errkind_codes_are_distinct() {
        let codes: Vec<u16> = [
            io::ErrorKind::NotFound,
            io::ErrorKind::InvalidData,
            io::ErrorKind::Interrupted,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
        ]
        .into_iter()
        .map(errkind_code)
        .collect();
        assert_eq!(codes, [1, 2, 3, 4, 5]);
        assert_eq!(errkind_code(io::ErrorKind::BrokenPipe), 0);
    }

    #[test]
    fn oversize_length_prefix_is_rejected_before_allocation() {
        let mut frame = encode_request(&Request::Stats);
        frame[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode_request(&frame).unwrap_err(), ProtoError::TooLarge(_)));
    }
}
