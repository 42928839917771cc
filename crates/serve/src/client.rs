//! A typed client over any [`Transport`]: encodes requests, decodes
//! replies, tracks the open session, and holds the client tier.
//!
//! **The client tier** ([`ClientTier`]) is the `Arc` payloads of the last
//! frame's `Ok` demand replies — the blocks the viewer is showing now. Its
//! hold rule is written once here and shared by both viewer-side callers,
//! this client and the cluster's `Router`: a demand key the tier holds is
//! answered locally with an `Arc` clone (no copy, no wire, no CRC), only
//! the absent keys are asked, and once the frame is merged the tier is
//! replaced by that frame's `Ok` payloads, so it never holds more than one
//! frame the caller already has. Errors are never held.
//!
//! Here a `Fetch` is split at [`ServeClient::send_fetch`]. Prefetch goes
//! unchanged, so a `Fetch` whose demand is all held is still sent for its
//! prefetch to ride. Each send queues its plan (per demand slot: the held
//! payload, or "asked"), and [`ServeClient::recv_fetch`] merges the next
//! reply into the oldest plan, so pipelined sends and receives stay in
//! step. The merge fails closed: a reply that does not answer exactly the
//! asked keys, in order, is [`ClientError::Unexpected`] and leaves the
//! tier alone. [`ServeClient::close`] empties it.
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
use std::collections::{HashMap, VecDeque};
use std::io;
use std::sync::Arc;
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

/// The client tier (see module docs): the `Ok` payloads of the last
/// frame a viewer merged, looked up before a frame is asked and replaced
/// after it is merged.
#[derive(Debug, Default)]
pub struct ClientTier {
    held: HashMap<BlockKey, Arc<Vec<f32>>>,
}

impl ClientTier {
    /// The payload `key` had in the last merged frame, as an `Arc` clone.
    pub fn get(&self, key: BlockKey) -> Option<Arc<Vec<f32>>> {
        self.held.get(&key).cloned()
    }

    /// Replace the tier by `blocks`' `Ok` payloads: the last frame only,
    /// and never an error.
    pub fn replace(&mut self, blocks: &[BlockReply]) {
        self.held.clear();
        for b in blocks {
            if let Ok(data) = &b.result {
                self.held.insert(b.key, data.clone());
            }
        }
    }

    /// Forget every held payload.
    pub fn clear(&mut self) {
        self.held.clear();
    }
}

/// One sent `Fetch`'s demand waiting for its reply: per demand slot, its
/// key and the tier's payload if it was held.
type Plan = Vec<(BlockKey, Option<Arc<Vec<f32>>>)>;

/// A connected client (see module docs).
pub struct ServeClient<T: Transport> {
    t: T,
    session: Option<u32>,
    trace: TraceCtx,
    tier: ClientTier,
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
            plans: VecDeque::new(),
        }
    }

    /// The open session id, once [`ServeClient::open`] succeeded.
    pub fn session(&self) -> Option<u32> {
        self.session
    }

    /// Set the trace context stamped on subsequent `Fetch` / `Advance`
    /// frames (the Router mints one per client request).
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

    /// One frame's wants: demand keys plus `(key, priority)` prefetch.
    pub fn fetch(
        &mut self,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<FetchOutcome, ClientError> {
        self.send_fetch(0, demand, prefetch)?;
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

    /// Advance the frame generation; returns the new generation.
    pub fn advance(&mut self) -> Result<u64, ClientError> {
        self.send_advance()?;
        match self.recv_response()? {
            Response::AdvanceAck { generation, .. } => Ok(generation),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("AdvanceAck")),
        }
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

    /// Fetch the server's shard map (cluster nodes answer; a plain
    /// server replies `ERR_NO_MAP`). Returns `(version, map_bytes)`.
    pub fn map_get(&mut self) -> Result<(u64, Vec<u8>), ClientError> {
        self.send(&Request::MapGet)?;
        match self.recv_response()? {
            Response::MapReply { version, map_bytes } => Ok((version, map_bytes)),
            Response::Error { code, message } => Err(ClientError::Server { code, message }),
            _ => Err(ClientError::Unexpected("MapReply")),
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
    /// [`ServeClient::recv_fetch`] reads. Only the demand keys the client
    /// tier lacks are sent; the prefetch list is sent whole.
    pub fn send_fetch(
        &mut self,
        generation: u64,
        demand: Vec<BlockKey>,
        prefetch: Vec<(BlockKey, f64)>,
    ) -> Result<(), ClientError> {
        let session = self.sid()?;
        let trace = self.trace;
        let slots: Vec<_> = demand.iter().map(|&k| (k, self.tier.get(k))).collect();
        let asked = slots.iter().filter(|(_, held)| held.is_none()).map(|&(k, _)| k).collect();
        self.send(&Request::Fetch { session, generation, demand: asked, prefetch, trace })?;
        self.plans.push_back(slots);
        Ok(())
    }

    /// Put an `Advance` on the wire without waiting for the ack.
    pub fn send_advance(&mut self) -> Result<(), ClientError> {
        let session = self.sid()?;
        let trace = self.trace;
        self.send(&Request::Advance { session, trace })
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
                self.session = Some(session);
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

    /// Receive a `FetchReply` and merge it into the oldest sent fetch's
    /// plan: one [`BlockReply`] per demand slot, in request order. A
    /// reply that does not answer exactly the asked keys, in order, is
    /// [`ClientError::Unexpected`] and leaves the tier as it was. A reply
    /// with no plan waiting (its request went out through
    /// [`ServeClient::send_raw`]) is returned as decoded.
    pub fn recv_fetch(&mut self) -> Result<FetchOutcome, ClientError> {
        // A transport error took no reply off the wire, so its plan waits.
        let frame = self.t.recv()?;
        let plan = self.plans.pop_front();
        let (replies, shed, downgraded) = match decode_response(&frame)? {
            Response::FetchReply { blocks, shed, downgraded, .. } => (blocks, shed, downgraded),
            Response::Error { code, message } => return Err(ClientError::Server { code, message }),
            _ => return Err(ClientError::Unexpected("FetchReply")),
        };
        let Some(plan) = plan else {
            return Ok(FetchOutcome { blocks: replies, shed, downgraded, held: 0 });
        };
        let asked = plan.iter().filter(|(_, held)| held.is_none()).map(|&(k, _)| k);
        if !replies.iter().map(|r| r.key).eq(asked) {
            return Err(ClientError::Unexpected("a FetchReply answering the asked keys in order"));
        }
        let mut replies = replies.into_iter();
        let mut held = 0;
        let blocks: Vec<BlockReply> = plan
            .into_iter()
            .map(|(key, payload)| match payload {
                Some(data) => {
                    held += 1;
                    BlockReply { key, result: Ok(data), crc: None }
                }
                None => replies.next().expect("length checked above"),
            })
            .collect();
        self.tier.replace(&blocks);
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
}
