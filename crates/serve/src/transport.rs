//! Frame transports: an in-process duplex pair for deterministic tests
//! and a localhost TCP stream for real connections.
//!
//! A [`Transport`] moves whole frames (as produced by
//! [`crate::proto::encode_request`] / [`crate::proto::encode_response`],
//! including the 8-byte length + CRC header) in both directions. A frame
//! may be handed over as one buffer ([`Transport::send`]) or as its
//! consecutive parts ([`Transport::send_segments`]): a reply's header
//! bytes interleaved with the pool's payload buffers, which TCP writes
//! with `writev` and nothing copies. Either way the peer receives one
//! whole frame. The in-process pair is two bounded-by-nothing mpsc
//! channels — sends never block, receives can poll — which is what
//! [`crate::InProcServer`] needs: it polls every pipe each round, so
//! every interleaving is chosen by the test, not the kernel.

use crate::proto::frame_body_len;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

/// A bidirectional frame pipe.
pub trait Transport: Send {
    /// Send one whole frame.
    fn send(&mut self, frame: &[u8]) -> io::Result<()>;

    /// Send one whole frame given as its consecutive `parts`. By default
    /// the parts are joined and sent with [`Transport::send`]; transports
    /// that can take them as they are override it.
    fn send_segments(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        self.send(&parts.concat())
    }

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
#[derive(Debug)]
pub struct InProcTransport {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

/// Create a connected pair of in-process transports: frames sent on one
/// end arrive on the other, in order, never corrupted and never merged.
/// Dropping one end hangs up: the other's receives report `BrokenPipe`
/// once the frames already sent are taken, and its sends fail at once.
pub fn inproc_pair() -> (InProcTransport, InProcTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (InProcTransport { tx: a_tx, rx: a_rx }, InProcTransport { tx: b_tx, rx: b_rx })
}

impl Transport for InProcTransport {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.tx.send(frame.to_vec()).map_err(|_| broken_pipe())
    }

    /// The joined parts are the message: one copy, not two.
    fn send_segments(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        self.tx.send(parts.concat()).map_err(|_| broken_pipe())
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

    /// The parts go out with vectored writes, straight from where they
    /// lie.
    fn send_segments(&mut self, parts: &[&[u8]]) -> io::Result<()> {
        let mut at = SegmentCursor::default();
        while !at.is_done(parts) {
            at.write_to(&mut self.stream, parts)?;
        }
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

/// Most slices one vectored write is given: Linux's `IOV_MAX`. A warm
/// reply is ~640 segments; a 64 MiB reply of tiny blocks is far more.
const MAX_IOVECS: usize = 1024;

/// How far into a sequence of segments the peer has taken: segment index,
/// byte offset within it: the write loop of [`TcpTransport::send_segments`].
/// Written by hand because `IoSlice::advance_slices` and
/// `write_all_vectored` are newer than the MSRV.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct SegmentCursor {
    seg: usize,
    off: usize,
}

impl SegmentCursor {
    /// Whether every byte of `parts` has been written. (`off` is always
    /// short of its segment's end: a finished segment moves the cursor on.)
    fn is_done(&self, parts: &[&[u8]]) -> bool {
        parts.iter().skip(self.seg).all(|p| p.is_empty())
    }

    /// One vectored write of what is left, at most [`MAX_IOVECS`] non-empty
    /// slices of it, retried while `Interrupted`; the cursor moves past the
    /// bytes `out` took. A full socket comes back as the `WouldBlock` error
    /// with the cursor where it was, and a peer that takes nothing as
    /// `WriteZero`.
    fn write_to(&mut self, out: &mut impl Write, parts: &[&[u8]]) -> io::Result<()> {
        let rest = parts.get(self.seg).map_or(&[][..], |p| &p[self.off..]);
        let iov: Vec<IoSlice<'_>> = std::iter::once(rest)
            .chain(parts.iter().skip(self.seg + 1).copied())
            .filter(|p| !p.is_empty())
            .take(MAX_IOVECS)
            .map(IoSlice::new)
            .collect();
        if iov.is_empty() {
            return Ok(());
        }
        let mut n = loop {
            match out.write_vectored(&iov) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => break n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        while n > 0 {
            let left = parts[self.seg].len() - self.off;
            if n < left {
                self.off += n;
                return Ok(());
            }
            n -= left;
            self.seg += 1;
            self.off = 0;
        }
        Ok(())
    }

    /// Bytes of `parts` already written.
    #[cfg(test)]
    fn written(&self, parts: &[&[u8]]) -> usize {
        parts[..self.seg].iter().map(|p| p.len()).sum::<usize>() + self.off
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{
        decode_response, encode_reply_frame, encode_request, encode_response, BlockReply, Request,
        Response, MAX_FRAME_BYTES,
    };
    use std::net::TcpListener;
    use std::sync::Arc;
    use viz_volume::{BlockId, BlockKey};

    /// A peer that takes `budget` more bytes, at most `chunk` per call
    /// across however many slices it is given, then reports a full socket.
    /// Every `interrupt`-th call is `Interrupted` instead. It keeps the
    /// most slices one call carried and counts empty ones.
    struct Throttled {
        got: Vec<u8>,
        budget: usize,
        chunk: usize,
        interrupt: usize,
        calls: usize,
        max_slices: usize,
        empty_slices: usize,
    }

    impl Throttled {
        fn new(chunk: usize, interrupt: usize) -> Self {
            Throttled {
                got: Vec::new(),
                budget: 0,
                chunk,
                interrupt,
                calls: 0,
                max_slices: 0,
                empty_slices: 0,
            }
        }
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            self.max_slices = self.max_slices.max(bufs.len());
            self.empty_slices += bufs.iter().filter(|b| b.is_empty()).count();
            if self.calls % self.interrupt == 0 {
                return Err(io::ErrorKind::Interrupted.into());
            }
            if self.budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let cap = self.budget.min(self.chunk);
            let before = self.got.len();
            for b in bufs {
                let take = (cap - (self.got.len() - before)).min(b.len());
                self.got.extend_from_slice(&b[..take]);
            }
            let n = self.got.len() - before;
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A `FetchReply` of `n` blocks: every fifth an error, every seventh an
    /// empty payload, the rest short payloads of which every third shares
    /// one `Arc`.
    fn mixed_reply(n: u32, salt: u32) -> Response {
        let shared = Arc::new(vec![0.25f32; 33]);
        let blocks = (0..n)
            .map(|i| {
                let key = BlockKey::new(1, 2, BlockId(i));
                let result = match i % 35 {
                    r if r % 5 == 0 => Err(i as u16 % 6),
                    r if r % 7 == 0 => Ok(Arc::new(Vec::new())),
                    r if r % 3 == 0 => Ok(shared.clone()),
                    _ => Ok(Arc::new((0..i % 61).map(|j| (i * 97 + j + salt) as f32).collect())),
                };
                BlockReply { key, result, crc: None }
            })
            .collect();
        Response::FetchReply { session: 7, blocks, shed: 1, downgraded: 2 }
    }

    /// The cursor over a peer that takes at most 777 bytes a call, so the
    /// splits land inside heads and inside payloads, over a reply of more
    /// segments than one vectored write may carry, with empty ones among
    /// them and calls interrupted on the way.
    #[test]
    fn cursor_writes_every_segment_once_in_order_across_partial_writes() {
        let reply = mixed_reply(1500, 0);
        let frame = encode_reply_frame(&reply);
        let parts = frame.segments();
        assert!(parts.len() > MAX_IOVECS, "{} segments", parts.len());
        assert!(parts.iter().any(|p| p.is_empty()), "zero-length payloads are empty segments");
        let mut peer = Throttled::new(777, 5);
        let mut at = SegmentCursor::default();
        while !at.is_done(&parts) {
            // The socket drains 3,000 bytes between polls; then it is full.
            peer.budget = 3000;
            loop {
                match at.write_to(&mut peer, &parts) {
                    Ok(()) if at.is_done(&parts) => break,
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => panic!("{e}"),
                }
            }
            assert_eq!(at.written(&parts), peer.got.len(), "a full socket keeps the rest owed");
        }
        assert!(peer.got == encode_response(&reply));
        assert_eq!(peer.got.len(), frame.wire_len());
        assert!(peer.max_slices <= MAX_IOVECS, "{} slices in one call", peer.max_slices);
        assert_eq!(peer.empty_slices, 0, "empty segments are skipped");
    }

    /// A peer that takes nothing (`Ok(0)`) or fails hard is reported, with
    /// the cursor left where it was.
    #[test]
    fn cursor_reports_a_gone_peer() {
        struct Gone(io::ErrorKind);
        impl Write for Gone {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                match self.0 {
                    io::ErrorKind::WriteZero => Ok(0),
                    kind => Err(kind.into()),
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let frame = encode_reply_frame(&mixed_reply(4, 0));
        let parts = frame.segments();
        for kind in [io::ErrorKind::WriteZero, io::ErrorKind::BrokenPipe] {
            let mut at = SegmentCursor::default();
            assert_eq!(at.write_to(&mut Gone(kind), &parts).unwrap_err().kind(), kind);
            assert_eq!(at, SegmentCursor::default());
        }
    }

    /// A 2,000-block reply over a real socket: vectored sends on one end,
    /// [`TcpTransport::recv`] on the other, the response decoded equal.
    #[test]
    fn tcp_send_segments_round_trips_a_2000_block_reply() {
        let (peer, mut rx) = tcp_pair();
        let reply = mixed_reply(2000, 11);
        let frame = encode_reply_frame(&reply);
        assert!(frame.segments().len() > 2 * MAX_IOVECS);
        let sender = std::thread::spawn(move || {
            let mut tx = TcpTransport::new(peer);
            tx.send_segments(&frame.segments()).unwrap();
            tx.send(&encode_request(&Request::Stats)).unwrap();
        });
        let got = rx.recv().unwrap();
        assert_eq!(decode_response(&got).unwrap(), reply);
        assert_eq!(rx.recv().unwrap(), encode_request(&Request::Stats), "and the next frame");
        sender.join().unwrap();
    }

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
        a.send_segments(&[b"seg", b"", b"ments"]).unwrap();
        assert_eq!(b.recv().unwrap(), b"segments", "segments arrive as one frame");
    }

    #[test]
    fn inproc_peer_drop_is_broken_pipe() {
        let (mut a, b) = inproc_pair();
        drop(b);
        assert_eq!(a.send(b"x").unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(a.recv().unwrap_err().kind(), io::ErrorKind::BrokenPipe);
    }
}
