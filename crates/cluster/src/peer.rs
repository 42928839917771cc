//! The router's link to a node over the VSRV protocol: a [`PeerLink`] is
//! one framed round trip, [`TcpPeerLink`] carries it over TCP, and a
//! `Connector` dials a fresh link to a named node.

use crate::shard::NodeId;
use std::io;
use std::net::TcpStream;
use viz_serve::proto::{decode_response, try_encode_request};
use viz_serve::{Request, Response, TcpTransport, Transport};

/// One framed request→response round trip to a node. Implementations
/// are a live connection; errors mean the connection is unusable and the
/// owner should redial.
pub trait PeerLink: Send {
    /// Send `req`, block for the reply.
    fn round_trip(&mut self, req: &Request) -> io::Result<Response>;
}

/// Dials a fresh link to the named node (the router's, one per router).
pub(crate) type Connector = dyn Fn(NodeId) -> io::Result<Box<dyn PeerLink>> + Send + Sync;

/// A [`PeerLink`] over localhost/LAN TCP.
pub struct TcpPeerLink {
    t: TcpTransport,
}

impl TcpPeerLink {
    /// Connect to a node's VSRV listener.
    pub fn connect(addr: std::net::SocketAddr) -> io::Result<TcpPeerLink> {
        Ok(TcpPeerLink { t: TcpTransport::new(TcpStream::connect(addr)?) })
    }
}

impl PeerLink for TcpPeerLink {
    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        self.t.send(&try_encode_request(req)?)?;
        let frame = self.t.recv()?;
        Ok(decode_response(&frame)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;
    use viz_serve::proto::MAX_FRAME_BYTES;
    use viz_serve::TraceCtx;
    use viz_volume::{BlockId, BlockKey};

    #[test]
    fn oversize_peer_fetch_is_invalid_input_and_nothing_is_sent() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut link = TcpPeerLink::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let demand = vec![BlockKey::scalar(BlockId(1)); MAX_FRAME_BYTES / 8];
        let req = Request::Fetch {
            session: 1,
            generation: 0,
            demand,
            prefetch: Vec::new(),
            trace: TraceCtx::NONE,
        };
        assert_eq!(link.round_trip(&req).unwrap_err().kind(), io::ErrorKind::InvalidInput);
        // Refused before the send: the peer sees the close and not one byte.
        drop(link);
        let mut rest = Vec::new();
        peer.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "{} bytes reached the peer", rest.len());
    }
}
