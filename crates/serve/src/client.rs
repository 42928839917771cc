//! A typed client over any [`Transport`]: encodes requests, decodes
//! replies, tracks the open session, and holds the client tier.
//!
//! **The client tier** ([`ClientTier`]) is the viewer's fast memory, the
//! top of Algorithm 1's hierarchy (PAPER.md §IV-D): the `Arc` payloads of
//! the `Ok` demand replies the viewer merged, counted in blocks. Its
//! order is one `viz_cache::CacheLevel` under LRU whose pins are the
//! frame merged last: each merge unpins, pins that frame's `Ok` demand in
//! slot order with one lookup a key (touching a held key, inserting and
//! storing a new one), and evicts unpinned keys least recently used first,
//! once, down to the capacity
//! ([`ClientTier::DEFAULT_CAPACITY`] blocks unless built with
//! [`ClientTier::with_capacity`]). So the tier always holds the frame it
//! just returned and never more than `max(capacity, that frame's Ok
//! demand)` payloads; at capacity 0 it holds exactly the last frame.
//!
//! The hold rule is written once here and shared by both viewer-side
//! callers, this client and the cluster's `Router`: a demand key the tier
//! holds is answered locally with an `Arc` clone (no copy, no wire, no
//! CRC), and only the absent keys are asked; a held key is not
//! prefetched either ([`ClientTier::drop_held`]). Errors are never held.
//! Holding a payload past its frame is safe because a [`BlockKey`] names
//! its timestep and the wire has no write request, so a block's payload
//! never changes under its key.
//!
//! Here a `Fetch` is split at [`ServeClient::send_fetch`]. A `Fetch` whose
//! demand is all held is still sent for its unheld prefetch to ride; a
//! frame with nothing to ask and nothing unheld to prefetch sends nothing
//! (the cluster's `Router` sends a node no empty batch either). Each call
//! queues its plan (per demand slot: the held payload, or "asked"; and
//! whether a `Fetch` went out), and
//! [`ServeClient::recv_fetch`] answers the oldest plan: from the tier
//! alone if it sent nothing, else by merging the next reply into it, so
//! pipelined sends and receives stay in step. A planned payload is an
//! `Arc` clone, so a merge in between that evicts its key does not empty
//! the slot. The merge fails closed: a reply that does not answer exactly
//! the asked keys, in order, is [`ClientError::Unexpected`] and leaves the
//! tier alone. [`ServeClient::close`] empties it.
//!
//! The frame generation is the client's own count
//! ([`ServeClient::advance`] makes no I/O): every `Fetch` carries it, and
//! the server advances the session when one arrives above its
//! generation, so a frame that sends nothing tells the server nothing
//! until the next one that does.
//!
//! The blocking calls (`open`, `fetch`, …) suit threaded use against a
//! [`crate::TcpServer`]. The split `send_*` /
//! `recv_*` halves exist for the deterministic tests, where the request
//! must be on the wire *before* the test steps the
//! [`crate::InProcServer`], and the reply is only read after.

use crate::proto::{
    decode_response, try_encode_request, BlockReply, ProtoError, Request, Response, TraceCtx,
};
use crate::transport::Transport;
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use viz_cache::{CacheLevel, KeyMap, PolicyKind};
use viz_volume::BlockKey;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (peer gone, socket error).
    Io(io::Error),
    /// The reply frame did not decode.
    Proto(ProtoError),
    /// The server answered with a typed error.
    Server {
        /// One of the wire `ERR_*` codes.
        code: u16,
        /// Server-provided context.
        message: String,
    },
    /// The server answered with the wrong response kind.
    Unexpected(&'static str),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Proto(e) => write!(f, "protocol: {e}"),
            ClientError::Server { code, message } => write!(f, "server error {code}: {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response, wanted {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Proto(e)
    }
}

/// One `fetch` round trip's result.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// One entry per demand key, in request order.
    pub blocks: Vec<BlockReply>,
    /// Prefetches the server shed.
    pub shed: u32,
    /// Prefetches admitted at reduced priority.
    pub downgraded: u32,
    /// Demand slots answered from the client tier, never sent.
    pub held: u32,
}

/// The client tier (see module docs): the viewer's fast memory, looked
/// up before a frame is asked and merged with the frame after.
#[derive(Debug)]
pub struct ClientTier {
    held: KeyMap<BlockKey, Arc<Vec<f32>>>,
    /// The held keys, least recently used first; the pins are the frame
    /// merged last.
    order: CacheLevel<BlockKey>,
    capacity: usize,
}

impl Default for ClientTier {
    fn default() -> Self {
        ClientTier::with_capacity(ClientTier::DEFAULT_CAPACITY)
    }
}

impl ClientTier {
    /// Blocks a tier holds by default: 1,024 bricks of at most 17,408 B,
    /// about 17 MiB (DESIGN.md §5m, "viewer fast memory").
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// An empty tier of `capacity` blocks. Capacity 0 holds the frame
    /// merged last and nothing else.
    pub fn with_capacity(capacity: usize) -> Self {
        // A `CacheLevel` holds at least one key; `merge` evicts down to
        // the tier's own capacity, 0 included.
        let order = CacheLevel::new(PolicyKind::Lru, capacity.max(1));
        ClientTier { held: KeyMap::default(), order, capacity }
    }

    /// The payload `key` has in the tier, as an `Arc` clone. A lookup
    /// leaves the order alone; the merge touches what the frame used.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<f32>>> {
        self.held.get(&key).cloned()
    }

    /// Drop the keys the tier holds from a frame's prefetch list: a held
    /// block is already in the viewer's fast memory, so it is not asked
    /// for ahead of time either (Algorithm 1's "unless in fast memory").
    pub fn drop_held(&self, prefetch: &mut Vec<(BlockKey, f64)>) {
        prefetch.retain(|(key, _)| !self.held.contains_key(key));
    }

    /// Merge one frame's replies: unpin the last frame, pin each `Ok` key
    /// in slot order (touching a held key, inserting a new one: one
    /// lookup each), then evict unpinned keys, least recently used first,
    /// down to the capacity. An error is never held. A held key keeps its
    /// payload: a block's payload never changes under its key.
    pub fn merge(&mut self, blocks: &[BlockReply]) {
        self.order.unpin_all();
        for b in blocks {
            if let Ok(data) = &b.result {
                if self.order.insert_pinned(b.key) {
                    self.held.insert(b.key, data.clone());
                }
            }
        }
        self.order.evict_to(self.capacity, |key| {
            self.held.remove(&key);
        });
    }

    /// Forget every held payload.
    pub fn clear(&mut self) {
        *self = ClientTier::with_capacity(self.capacity);
    }

    /// Payloads held (for tests).
    #[doc(hidden)]
    pub fn len(&self) -> usize {
        self.held.len()
    }

    /// `true` when nothing is held (for tests).
    #[doc(hidden)]
    pub fn is_empty(&self) -> bool {
        self.held.is_empty()
    }
}

/// One frame's demand waiting for its answer.
struct Plan {
    /// Per demand slot, its key and the tier's payload if it was held.
    slots: Vec<(BlockKey, Option<Arc<Vec<f32>>>)>,
    /// Whether a `Fetch` went out; a plan that sent nothing is answered
    /// from the tier alone.
    sent: bool,
}

/// A connected client (see module docs).
pub struct ServeClient<T: Transport> {
    t: T,
    session: Option<u32>,
    trace: TraceCtx,
    tier: ClientTier,
    /// The frame generation [`ServeClient::advance`] counts.
    generation: u64,
    /// Plans of the fetches sent and not yet received, oldest first.
    plans: VecDeque<Plan>,
}

impl<T: Transport> ServeClient<T> {
    /// Wrap a connected transport.
    pub fn new(t: T) -> Self {
        ServeClient {
            t,
            session: None,
            trace: TraceCtx::NONE,
            tier: ClientTier::default(),
            generation: 0,
            plans: VecDeque::new(),
        }
    }

    /// Hold merged blocks in `tier` instead of a default one.
    pub fn with_tier(mut self, tier: ClientTier) -> Self {
        self.tier = tier;
        self
    }

    /// The client tier (for tests).
    #[doc(hidden)]
    pub fn tier(&self) -> &ClientTier {
        &self.tier
    }

    /// The open session id, once [`ServeClient::open`] succeeded.
    pub fn session(&self) -> Option<u32> {
        self.session
    }

    /// Set the trace context stamped on subsequent `Fetch` frames (the
    /// Router mints one per client request).
    /// Returns the previous context.
    pub fn set_trace_ctx(&mut self, trace: TraceCtx) -> TraceCtx {
        std::mem::replace(&mut self.trace, trace)
    }

    fn sid(&self) -> Result<u32, ClientError> {
        self.session.ok_or(ClientError::Unexpected("an open session"))
    }

    // ---- blocking round trips -------------------------------------

    /// Open a session under `name`.
    pub fn open(&mut self, name: &str) -> Result<u32, ClientError> {
        self.send_open(name)?;
        self.recv_open()
    }

    /// One frame's wants: demand keys plus `(key, priority)` prefetch,
    /// under the generation [`ServeClient::advance`] last returned.
    pub fn fetch(
        &mut self,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<FetchOutcome, ClientError> {
        self.send_fetch(self.generation, demand, prefetch)?;
        self.recv_fetch()
    }

    /// Fetch under an explicit generation (stale generations shed).
    pub fn fetch_at(
        &mut self,
        generation: u64,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<FetchOutcome, ClientError> {
        self.send_fetch(generation, demand, prefetch)?;
        self.recv_fetch()
    }

    /// Advance the frame generation; returns the new generation. No I/O:
    /// the server learns it from the next `Fetch` sent under it, which
    /// purges the session's queued prefetch from earlier generations.
    pub fn advance(&mut self) -> Result<u64, ClientError> {
        self.sid()?;
        self.generation += 1;
        Ok(self.generation)
    }

    /// Snapshot the server's counters.
    pub fn stats(&mut self) -> Result<Vec<(String, u64)>, ClientError> {
        self.send_stats()?;
        match self.recv_response()? {
            Response::StatsReply { counters } => Ok(counters),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("StatsReply")),
        }
    }

    /// Close the open session and empty the client tier.
    pub fn close(&mut self) -> Result<(), ClientError> {
        self.send_close()?;
        self.recv_close()
    }

    // ---- split halves (deterministic stepping) --------------------

    /// Put an `Open` on the wire without waiting for the ack.
    pub fn send_open(&mut self, name: &str) -> Result<(), ClientError> {
        self.send(&Request::Open { name: name.to_string() })
    }

    /// Put a `Fetch` on the wire without waiting for the reply, which
    /// [`ServeClient::recv_fetch`] reads. Only the demand and prefetch
    /// keys the client tier lacks are sent. With nothing to ask and
    /// nothing to prefetch, nothing is sent.
    pub fn send_fetch(
        &mut self,
        generation: u64,
        demand: Vec<BlockKey>,
        mut prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<(), ClientError> {
        let session = self.sid()?;
        let trace = self.trace;
        self.tier.drop_held(&mut prefetch);
        let slots: Vec<_> = demand.iter().map(|&k| (k, self.tier.get(k))).collect();
        let asked: Vec<BlockKey> =
            slots.iter().filter(|(_, held)| held.is_none()).map(|&(k, _)| k).collect();
        let sent = !asked.is_empty() || !prefetch.is_empty();
        if sent {
            self.send(&Request::Fetch { session, generation, demand: asked, prefetch, trace })?;
        }
        self.plans.push_back(Plan { slots, sent });
        Ok(())
    }

    /// Put a `Stats` on the wire without waiting for the reply.
    pub fn send_stats(&mut self) -> Result<(), ClientError> {
        self.send(&Request::Stats)
    }

    /// Put a `Close` on the wire without waiting for the ack.
    pub fn send_close(&mut self) -> Result<(), ClientError> {
        let session = self.sid()?;
        self.send(&Request::Close { session })
    }

    /// Send a raw request frame (corruption tests build their own).
    pub fn send_raw(&mut self, frame: &[u8]) -> Result<(), ClientError> {
        Ok(self.t.send(frame)?)
    }

    /// Receive and decode the next response frame.
    pub fn recv_response(&mut self) -> Result<Response, ClientError> {
        let frame = self.t.recv()?;
        Ok(decode_response(&frame)?)
    }

    /// Receive an `OpenAck`, recording the session id.
    pub fn recv_open(&mut self) -> Result<u32, ClientError> {
        match self.recv_response()? {
            Response::OpenAck { session } => {
                // A new session starts at generation 0 on the server.
                self.session = Some(session);
                self.generation = 0;
                Ok(session)
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("OpenAck")),
        }
    }

    /// Receive a `CloseAck`, forgetting the session and emptying the
    /// client tier.
    pub fn recv_close(&mut self) -> Result<(), ClientError> {
        match self.recv_response()? {
            Response::CloseAck { .. } => {
                self.session = None;
                self.tier.clear();
                Ok(())
            }
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("CloseAck")),
        }
    }

    /// Answer the oldest plan: one [`BlockReply`] per demand slot, in
    /// request order. A plan that sent nothing is answered from the tier
    /// without reading the transport; otherwise the next `FetchReply` is
    /// received and merged into it. A reply that does not answer exactly
    /// the asked keys, in order, is [`ClientError::Unexpected`] and leaves
    /// the tier as it was. A reply with no plan waiting (its request went
    /// out through [`ServeClient::send_raw`]) is returned as decoded.
    ///
    /// Each answered plan is one viewer frame: with telemetry on, it
    /// closes a `Frame` span (`key` = the client's generation, `arg` =
    /// `missing << 8 | degraded`, where `missing` counts the demand slots
    /// answered with an error, a cut-off deadline's `TimedOut` included).
    pub fn recv_fetch(&mut self) -> Result<FetchOutcome, ClientError> {
        let ft = viz_telemetry::start();
        // A transport error took no reply off the wire, so its plan waits.
        let frame = match self.plans.front() {
            Some(plan) if !plan.sent => None,
            _ => Some(self.t.recv()?),
        };
        let plan = self.plans.pop_front();
        let (replies, shed, downgraded) = match frame.as_deref().map(decode_response).transpose()? {
            None => (Vec::new(), 0, 0),
            Some(Response::FetchReply { blocks, shed, downgraded, .. }) => {
                (blocks, shed, downgraded)
            }
            Some(Response::Error { code, message }) => {
                return Err(ClientError::Server { code, message })
            }
            Some(_) => return Err(ClientError::Unexpected("FetchReply")),
        };
        let Some(Plan { slots, .. }) = plan else {
            return Ok(FetchOutcome { blocks: replies, shed, downgraded, held: 0 });
        };
        let asked = slots.iter().filter(|(_, held)| held.is_none()).map(|&(k, _)| k);
        if !replies.iter().map(|r| r.key).eq(asked) {
            return Err(ClientError::Unexpected("a FetchReply answering the asked keys in order"));
        }
        let mut replies = replies.into_iter();
        let mut held = 0;
        let blocks: Vec<BlockReply> = slots
            .into_iter()
            .map(|(key, payload)| match payload {
                Some(data) => {
                    held += 1;
                    BlockReply { key, result: Ok(data), crc: None }
                }
                None => replies.next().expect("length checked above"),
            })
            .collect();
        self.tier.merge(&blocks);
        if ft.is_some() {
            let missing = blocks.iter().filter(|b| b.result.is_err()).count() as u64;
            viz_telemetry::span(
                viz_telemetry::EventKind::Frame,
                self.generation,
                (missing << 8) | u64::from(missing > 0),
                ft,
            );
        }
        Ok(FetchOutcome { blocks, shed, downgraded, held })
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        Ok(self.t.send(&try_encode_request(req)?)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{decode_request, encode_request, encode_response, MAX_FRAME_BYTES};
    use crate::TcpTransport;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use viz_volume::BlockId;

    #[test]
    fn oversize_fetch_is_invalid_input_and_nothing_is_sent() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut client = ServeClient::new(TcpTransport::new(stream));

        client.send_open("big").unwrap();
        let mut open = vec![0u8; encode_request(&Request::Open { name: "big".into() }).len()];
        peer.read_exact(&mut open).unwrap();
        peer.write_all(&encode_response(&Response::OpenAck { session: 4 })).unwrap();
        assert_eq!(client.recv_open().unwrap(), 4);

        // 8 wire bytes a demand key: the keys alone fill the limit.
        let demand = vec![BlockKey::scalar(BlockId(1)); MAX_FRAME_BYTES / 8];
        match client.send_fetch(0, demand, vec![]) {
            Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}"),
            other => panic!("wanted InvalidInput, got {other:?}"),
        }
        // So is an `Open` name its `u16` length field cannot count.
        match client.send_open(&"n".repeat(70_000)) {
            Err(ClientError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::InvalidInput, "{e}"),
            other => panic!("wanted InvalidInput, got {other:?}"),
        }
        // The connection is still in step: the next thing the peer reads is
        // the next request, whole.
        client.send_stats().unwrap();
        let mut next = vec![0u8; encode_request(&Request::Stats).len()];
        peer.read_exact(&mut next).unwrap();
        assert_eq!(decode_request(&next).unwrap(), Request::Stats);
    }

    /// Prints the tier's cost per key of `get` and of `merge` for a
    /// 333-key frame over 833 held keys: a warm frame of the benchmark's
    /// 1,014-brick scene. Run it in release on one idle core:
    /// `taskset -c 0 cargo test --release -p viz-serve --lib tier_cost -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing: run it in release, on an idle core, with --nocapture"]
    fn tier_cost_per_key() {
        use std::hint::black_box;
        use std::time::Instant;

        const HELD: u32 = 833;
        const FRAME: u32 = 333;
        const FRAMES: u32 = 60;
        let reply = |id: u32| BlockReply {
            key: BlockKey::new(0, 3, BlockId(id)),
            result: Ok(Arc::new(vec![id as f32; 4])),
            crc: None,
        };
        // Frames that slide over the held keys a little each step, as an
        // orbit's visible sets do.
        let frames: Vec<Vec<BlockReply>> = (0..FRAMES)
            .map(|f| (0..FRAME).map(|i| reply((f * 14 + i * 2) % HELD)).collect())
            .collect();
        let mut tier = ClientTier::default();
        tier.merge(&(0..HELD).map(reply).collect::<Vec<_>>());
        let keys = f64::from(FRAMES * FRAME);
        let best_of_five = |pass: &mut dyn FnMut()| {
            let mut time = || {
                let start = Instant::now();
                pass();
                start.elapsed().as_secs_f64()
            };
            (0..5).map(|_| time()).fold(f64::INFINITY, f64::min) * 1e9 / keys
        };
        let get = best_of_five(&mut || {
            for frame in &frames {
                for b in frame {
                    black_box(tier.get(b.key));
                }
            }
        });
        let merge = best_of_five(&mut || {
            for frame in &frames {
                tier.merge(frame);
            }
        });
        assert_eq!(tier.len(), HELD as usize, "every frame's keys were already held");
        println!("{FRAME}-key frames over {HELD} held keys");
        println!("get   {get:7.1} ns/key");
        println!("merge {merge:7.1} ns/key");
        println!("frame {:7.2} us", (get + merge) * f64::from(FRAME) / 1e3);
    }
}
