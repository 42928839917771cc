//! Frame transports: an in-process duplex pair for deterministic tests
//! and a localhost TCP stream for real connections.
//!
//! A [`Transport`] moves whole frames (as produced by
//! [`crate::proto::encode_request`] / [`crate::proto::encode_response`],
//! including the 8-byte length + CRC header) in both directions. The
//! in-process pair is two bounded-by-nothing mpsc channels — sends never
//! block, receives can poll — which is what the `workers = 0` stepper
//! tests need: every interleaving is chosen by the test, not the kernel.

use crate::proto::frame_body_len;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

/// A bidirectional frame pipe.
pub trait Transport: Send {
    /// Send one whole frame.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Block until a whole frame arrives (or the peer goes away).
    fn recv(&mut self) -> io::Result<Vec<u8>>;

    /// Non-blocking poll: `Ok(None)` when no frame is ready. Transports
    /// without a cheap poll (TCP) return `ErrorKind::Unsupported`.
    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>>;
}

fn broken_pipe() -> io::Error {
    io::Error::new(io::ErrorKind::BrokenPipe, "transport peer closed")
}

/// One end of an in-process duplex frame pipe (see [`inproc_pair`]).
pub struct InProcTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    notify: Option<std::sync::Arc<dyn Fn() + Send + Sync>>,
}

impl std::fmt::Debug for InProcTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InProcTransport").field("notify", &self.notify.is_some()).finish()
    }
}

/// Create a connected pair of in-process transports: frames sent on one
/// end arrive on the other, in order, never corrupted and never merged.
pub fn inproc_pair() -> (InProcTransport, InProcTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        InProcTransport { tx: a_tx, rx: a_rx, notify: None },
        InProcTransport { tx: b_tx, rx: b_rx, notify: None },
    )
}

impl InProcTransport {
    /// Install a readiness hook: `f` runs after every successful send,
    /// so a poll-driven peer can learn a frame is waiting without
    /// sleeping. The reactor back end marks a
    /// [`viz_fetch::ReadySet`] token here — this is what makes the
    /// in-process pipe a virtual-readiness transport.
    pub fn set_notify(&mut self, f: std::sync::Arc<dyn Fn() + Send + Sync>) {
        self.notify = Some(f);
    }
}

impl Transport for InProcTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.tx.send(frame.to_vec()).map_err(|_| broken_pipe())?;
        if let Some(n) = &self.notify {
            n();
        }
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.rx.recv().map_err(|_| broken_pipe())
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self.rx.try_recv() {
            Ok(f) => Ok(Some(f)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(broken_pipe()),
        }
    }
}

/// Frame transport over a TCP stream. Reads the 8-byte length + CRC
/// header first, bounds-checks the declared body length, then reads
/// exactly that many more bytes — a malicious length prefix is refused
/// before any allocation, and a peer that goes away mid-body is
/// `UnexpectedEof`.
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wrap an accepted or connected stream.
    pub fn new(stream: TcpStream) -> Self {
        TcpTransport { stream }
    }

    /// Connect to a listening [`crate::server::TcpServer`].
    pub fn connect(addr: &str) -> io::Result<Self> {
        Ok(TcpTransport { stream: TcpStream::connect(addr)? })
    }

    /// The underlying stream (read-timeout tuning, shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stream.write_all(frame)?;
        self.stream.flush()
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        let mut header = [0u8; 8];
        self.stream.read_exact(&mut header)?;
        let body_len = frame_body_len(&header).map_err(io::Error::from)?;
        // Read into spare capacity: the body is not zero-filled first.
        let mut frame = Vec::with_capacity(8 + body_len);
        frame.extend_from_slice(&header);
        let got = (&mut self.stream).take(body_len as u64).read_to_end(&mut frame)?;
        if got < body_len {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("peer closed {got} bytes into a {body_len}-byte frame body"),
            ));
        }
        Ok(frame)
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        Err(io::Error::new(io::ErrorKind::Unsupported, "TCP transport has no cheap poll"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, Request, MAX_FRAME_BYTES};
    use std::net::TcpListener;

    /// A connected localhost pair: the raw peer stream and a transport.
    fn tcp_pair() -> (TcpStream, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        (peer, TcpTransport::new(accepted))
    }

    #[test]
    fn tcp_recv_returns_each_frame_whole_and_unchanged() {
        let (mut peer, mut t) = tcp_pair();
        let a = encode_request(&Request::Open { name: "viewer".into() });
        let b = encode_request(&Request::Stats);
        // Both frames in one write, the second's end withheld for a moment:
        // recv must stop at the frame boundary and wait for the rest.
        let (now, later) = b.split_at(b.len() - 3);
        peer.write_all(&[&a[..], now].concat()).unwrap();
        assert_eq!(t.recv().unwrap(), a);
        peer.write_all(later).unwrap();
        assert_eq!(t.recv().unwrap(), b);
    }

    #[test]
    fn tcp_peer_closing_mid_body_is_unexpected_eof() {
        let (mut peer, mut t) = tcp_pair();
        let frame = encode_request(&Request::Open { name: "cut short".into() });
        peer.write_all(&frame[..frame.len() - 5]).unwrap();
        drop(peer);
        assert_eq!(t.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
        // And so is a close inside the header, as before.
        let (mut peer, mut t) = tcp_pair();
        peer.write_all(&frame[..3]).unwrap();
        drop(peer);
        assert_eq!(t.recv().unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn tcp_oversize_header_is_refused_before_the_body() {
        let (mut peer, mut t) = tcp_pair();
        let mut header = [0u8; 8];
        header[..4].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
        // Only the header is ever sent: a recv that tried to read (or
        // allocate for) the announced body would block here, not return.
        peer.write_all(&header).unwrap();
        let err = t.recv().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn inproc_pair_moves_frames_both_ways() {
        let (mut a, mut b) = inproc_pair();
        a.send(b"hello").unwrap();
        a.send(b"world").unwrap();
        assert_eq!(b.try_recv().unwrap().unwrap(), b"hello");
        assert_eq!(b.recv().unwrap(), b"world");
        assert!(b.try_recv().unwrap().is_none());
        b.send(b"ack").unwrap();
        assert_eq!(a.recv().unwrap(), b"ack");
    }

    #[test]
    fn inproc_peer_drop_is_broken_pipe() {
        let (mut a, b) = inproc_pair();
        drop(b);
        assert_eq!(a.send(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(a.recv().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }
}
