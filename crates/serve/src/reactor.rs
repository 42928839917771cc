//! Reactor front ends: every connection on one poll-driven event loop.
//!
//! The thread-per-connection [`crate::TcpServer`] spends an OS thread
//! (stack, scheduler slot) per client, which caps a server at a few
//! hundred sessions. The reactor model holds *all* connections in one
//! loop built from the [`viz_fetch::reactor`] substrate: `poll(2)` for
//! socket readiness, a [`TimerWheel`] for demand deadlines (no
//! sacrificial timeout threads), and a [`viz_fetch::ReadySet`] so the
//! deterministic [`InProcServer`] runs through the *same* connection
//! table — the soak suite drives thousands of virtual connections on a
//! virtual clock and exercises exactly the code the TCP loop runs.
//!
//! ## Per-connection state machine
//!
//! Every front end, the thread-per-connection one included, runs one
//! connection state machine (`conn::Conn`). A connection is either
//! **idle** (buffered requests decode and dispatch immediately) or
//! **parked** on one in-flight `Fetch`. While parked, later requests stay
//! buffered — request→reply order per connection is the same contract
//! [`crate::serve_connection`] keeps. A parked fetch unparks when its
//! demand tickets resolve ([`crate::PendingFetch::poll`]) or when its
//! deadline timer fires, in which case unresolved keys report `TimedOut`
//! and their reads stay in flight for a later frame — degraded, not
//! dropped.
//!
//! Pick the backend with [`crate::ServeConfig::backend`]; [`crate::TcpFrontend`]
//! dispatches on it so callers and tests are backend-generic.

use crate::conn::{Conn, Pipe};
use crate::inproc_pair;
use crate::proto::{encode_reply_frame, frame_body_len, ReplyFrame, Response};
use crate::server::{send_reply, DefaultDispatch, DrainReport, Server};
use crate::transport::{InProcTransport, SegmentCursor, Transport};
use std::collections::{BTreeMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use viz_fetch::reactor::{POLL_IN, POLL_OUT};
use viz_fetch::{poll_fds, PollFd, ReadySet, TimerWheel};
use viz_telemetry::EventKind as Ev;

/// The connections of one poll-driven loop by token, in token order, and
/// the wheel their demand deadlines run on. Both reactor front ends drive
/// it; they differ only in their [`Pipe`] and in how they learn a
/// connection is ready. Tokens are never reused, so a timer that outlives
/// its connection fires into nothing.
struct Conns<P> {
    server: Arc<Server>,
    live: BTreeMap<u64, (P, Conn)>,
    next_token: u64,
    wheel: TimerWheel,
}

impl<P: Pipe> Conns<P> {
    fn new(server: Arc<Server>) -> Self {
        Conns { server, live: BTreeMap::new(), next_token: 0, wheel: TimerWheel::for_serving() }
    }

    /// Add a connection; returns its token.
    fn insert(&mut self, pipe: P) -> u64 {
        let token = self.next_token;
        self.next_token += 1;
        self.live.insert(token, (pipe, Conn::default()));
        token
    }

    /// Serve one connection's buffered frames until it parks or runs dry.
    fn service(&mut self, token: u64, now_ns: u64) -> usize {
        let Some((pipe, conn)) = self.live.get_mut(&token) else { return 0 };
        conn.service(pipe, &self.server, &DefaultDispatch, &mut self.wheel, now_ns, token)
    }

    /// Reply to every parked fetch whose tickets all resolved; each freed
    /// connection then serves what it has buffered. Returns replies plus
    /// frames taken.
    fn unpark(&mut self, now_ns: u64) -> usize {
        let mut freed = Vec::new();
        for (&token, (pipe, conn)) in &mut self.live {
            if conn.unpark(pipe, &self.server, &mut self.wheel) {
                freed.push(token);
            }
        }
        self.serve_freed(freed, now_ns)
    }

    /// Fire the deadlines `now_ns` has passed; each freed connection then
    /// serves what it has buffered. Returns replies plus frames taken.
    fn expire(&mut self, now_ns: u64) -> usize {
        let mut freed = Vec::new();
        for (_, token) in self.wheel.expire(now_ns) {
            let Some((pipe, conn)) = self.live.get_mut(&token) else { continue };
            if conn.expire(pipe, &self.server, &mut self.wheel) {
                freed.push(token);
            }
        }
        self.serve_freed(freed, now_ns)
    }

    fn serve_freed(&mut self, freed: Vec<u64>, now_ns: u64) -> usize {
        freed.len() + freed.into_iter().map(|t| self.service(t, now_ns)).sum::<usize>()
    }

    /// Drop dead connections: their sessions close, their timers cancel.
    fn reap(&mut self) {
        let (server, wheel) = (&self.server, &mut self.wheel);
        self.live.retain(|_, (_, conn)| {
            if conn.dead {
                conn.close(server, Some(&mut *wheel));
            }
            !conn.dead
        });
    }
}

/// Split complete frames off the front of `rbuf`. `Err` means the
/// header itself is garbage — the stream cannot be resynchronized.
fn take_frame(rbuf: &mut Vec<u8>) -> io::Result<Option<Vec<u8>>> {
    if rbuf.len() < 8 {
        return Ok(None);
    }
    let header: &[u8; 8] = rbuf[..8].try_into().expect("8-byte slice");
    let body = frame_body_len(header).map_err(io::Error::from)?;
    let total = 8 + body;
    if rbuf.len() < total {
        return Ok(None);
    }
    Ok(Some(rbuf.drain(..total).collect()))
}

// ---------------------------------------------------------------------
// TCP reactor
// ---------------------------------------------------------------------

/// Encoded replies owed to one peer, oldest first. A reply is queued as
/// its [`ReplyFrame`] — header bytes plus the pool's payload `Arc`s, which
/// it keeps alive until their last byte is out — and written from there
/// with vectored writes, so the loop thread copies no payload. The queue
/// holds the unsent backlog plus at most the sent part of the frame in
/// progress, however many replies are pipelined behind it.
#[derive(Default)]
struct WriteQueue {
    frames: VecDeque<ReplyFrame>,
    /// How much of the front frame the peer has already taken.
    at: SegmentCursor,
}

impl WriteQueue {
    fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    fn push(&mut self, frame: ReplyFrame) {
        self.frames.push_back(frame);
    }

    /// Write as much as `out` takes right now. `Err` means the peer is
    /// gone; a full socket (`WouldBlock`) is `Ok` with frames left queued.
    fn flush(&mut self, out: &mut impl Write) -> io::Result<()> {
        while let Some(front) = self.frames.front() {
            let parts = front.segments();
            while !self.at.is_done(&parts) {
                match self.at.write_to(out, &parts) {
                    Ok(()) => {}
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                    Err(e) => return Err(e),
                }
            }
            self.frames.pop_front();
            self.at = SegmentCursor::default();
        }
        Ok(())
    }
}

/// A nonblocking socket: bytes read so far in, the write queue out.
struct TcpPipe {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wq: WriteQueue,
}

impl TcpPipe {
    /// Write as much queued reply data as the socket takes right now.
    fn flush(&mut self) -> io::Result<()> {
        self.wq.flush(&mut self.stream)
    }
}

impl Pipe for TcpPipe {
    fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        take_frame(&mut self.rbuf)
    }

    fn reply(&mut self, resp: &Response) -> io::Result<()> {
        self.wq.push(encode_reply_frame(resp));
        self.flush()
    }
}

/// A localhost TCP front end running every connection on one poll loop.
/// API-compatible with [`crate::TcpServer`]; see the module docs for the
/// model.
pub struct ReactorTcpServer {
    server: Arc<Server>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    event_loop: Option<JoinHandle<()>>,
}

impl ReactorTcpServer {
    /// Bind and start the event loop. Use `"127.0.0.1:0"` for an
    /// OS-assigned port, read back via [`ReactorTcpServer::local_addr`].
    pub fn bind(server: Arc<Server>, addr: &str) -> io::Result<ReactorTcpServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let event_loop = {
            let server = server.clone();
            let stop = stop.clone();
            Some(
                std::thread::Builder::new()
                    .name("viz-serve-reactor".into())
                    .spawn(move || run_tcp_loop(&server, &listener, &stop))?,
            )
        };
        Ok(ReactorTcpServer { server, addr: local, stop, event_loop })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The served [`Server`].
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Stop the loop, close remaining connections, and drain.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the loop out of its poll with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.event_loop.take() {
            let _ = h.join();
        }
        self.server.drain()
    }
}

fn run_tcp_loop(server: &Arc<Server>, listener: &TcpListener, stop: &AtomicBool) {
    use std::os::unix::io::AsRawFd;
    let epoch = Instant::now();
    let mut conns: Conns<TcpPipe> = Conns::new(server.clone());
    let mut ticks: u64 = 0;
    // Engine-completion wake: a self-connected loopback UDP socket whose
    // fd joins the poll set. The engine's completion hook sends one byte
    // per resolved job, so a loop parked in poll(2) over idle sockets
    // learns about finished reads immediately instead of at its timeout.
    let wake = std::net::UdpSocket::bind("127.0.0.1:0").ok().and_then(|w| {
        w.set_nonblocking(true).ok()?;
        w.connect(w.local_addr().ok()?).ok()?;
        let tx = w.try_clone().ok()?;
        server.engine().set_completion_hook(Some(Arc::new(move || {
            let _ = tx.send(&[1]);
        })));
        Some(w)
    });
    let conn_base = 1 + usize::from(wake.is_some());
    loop {
        let tt = viz_telemetry::start();
        let now_ns = epoch.elapsed().as_nanos() as u64;
        // Poll interest: the listener plus every live connection; write
        // interest only while a reply is partially flushed.
        let tokens: Vec<u64> = conns.live.keys().copied().collect();
        let mut fds = Vec::with_capacity(tokens.len() + conn_base);
        fds.push(PollFd::new(listener.as_raw_fd(), POLL_IN));
        if let Some(w) = &wake {
            fds.push(PollFd::new(w.as_raw_fd(), POLL_IN));
        }
        let mut any_parked = false;
        for (pipe, conn) in conns.live.values() {
            let mut ev = POLL_IN;
            if !pipe.wq.is_empty() {
                ev |= POLL_OUT;
            }
            any_parked |= conn.is_parked();
            fds.push(PollFd::new(pipe.stream.as_raw_fd(), ev));
        }
        // Parked fetches resolve on engine-worker time; the wake socket
        // reports that as readiness, so the loop sleeps to the next timer
        // deadline (bounded so shutdown and accept recover within a beat
        // even if a wake races the poll). Only when the wake socket could
        // not be set up does a short parked-poll timeout stand in.
        let timeout_ms = if any_parked && wake.is_none() {
            1
        } else {
            match conns.wheel.next_deadline_ns() {
                Some(d) => ((d.saturating_sub(now_ns)) / 1_000_000).clamp(1, 25) as i32,
                None => 25,
            }
        };
        let events = poll_fds(&mut fds, timeout_ms).unwrap_or(0);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        // Drain wake bytes: their only meaning is "look at parked fetches".
        if let Some(w) = &wake {
            if fds[1].readable() {
                let mut sink = [0u8; 64];
                while w.recv(&mut sink).is_ok() {}
            }
        }
        // Accept every waiting connection.
        if fds[0].readable() {
            while let Ok((stream, _)) = listener.accept() {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                conns.insert(TcpPipe { stream, rbuf: Vec::new(), wq: WriteQueue::default() });
            }
        }
        // Read + dispatch on readable connections.
        for (i, &token) in tokens.iter().enumerate() {
            let fd = fds[i + conn_base];
            if let Some((pipe, conn)) = conns.live.get_mut(&token) {
                if fd.readable() && !read_into(&mut pipe.stream, &mut pipe.rbuf) {
                    conn.dead = true;
                }
            }
            conns.service(token, now_ns);
            if fd.writable() {
                if let Some((pipe, conn)) = conns.live.get_mut(&token) {
                    conn.dead |= pipe.flush().is_err();
                }
            }
        }
        // Move queued work into the engine; its workers resolve tickets.
        server.pump();
        // Unpark completed fetches, then expire missed deadlines.
        conns.unpark(now_ns);
        conns.expire(now_ns);
        // Opportunistic flush (most replies fit the socket buffer).
        for (pipe, conn) in conns.live.values_mut() {
            if !pipe.wq.is_empty() {
                conn.dead |= pipe.flush().is_err();
            }
        }
        conns.reap();
        if viz_telemetry::enabled() {
            ticks += 1;
            viz_telemetry::span(
                Ev::ReactorTick,
                ticks,
                ((events as u64) << 32) | conns.live.len() as u64,
                tt,
            );
        }
    }
    // Loop stopped: close whatever is still connected.
    if wake.is_some() {
        server.engine().set_completion_hook(None);
    }
    for (pipe, mut conn) in conns.live.into_values() {
        conn.close(server, None);
        let _ = pipe.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Drain the socket into `rbuf`; `false` on EOF or a hard error.
fn read_into(stream: &mut TcpStream, rbuf: &mut Vec<u8>) -> bool {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return false,
            Ok(n) => rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
}

// ---------------------------------------------------------------------
// Deterministic in-process server
// ---------------------------------------------------------------------

impl Pipe for InProcTransport {
    fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.try_recv()
    }

    fn reply(&mut self, resp: &Response) -> io::Result<()> {
        send_reply(self, resp)
    }
}

/// The reactor's connection table over in-process pipes and a virtual
/// clock: the deterministic front end the serve tests and the soak suite
/// drive. [`InProcServer::connect`] hands back a client pipe whose sends
/// — and whose drop, a virtual POLLHUP — mark a [`ReadySet`] token, the
/// loop's stand-in for socket readiness. [`InProcServer::tick`] runs the
/// same service/unpark/expire/reap cycle as the TCP loop, but to
/// quiescence, with the engine stepped inline
/// ([`viz_fetch::FetchEngine::run_one`]). Deadlines come off the
/// caller-advanced clock ([`InProcServer::advance`]), never the wall.
pub struct InProcServer {
    conns: Conns<InProcTransport>,
    ready: Arc<ReadySet>,
    now_ns: u64,
    ticks: u64,
}

impl InProcServer {
    /// Wrap a server (typically over a `workers = 0` engine).
    pub fn new(server: Arc<Server>) -> InProcServer {
        InProcServer { conns: Conns::new(server), ready: ReadySet::new(), now_ns: 0, ticks: 0 }
    }

    /// The served [`Server`].
    pub fn server(&self) -> &Arc<Server> {
        &self.conns.server
    }

    /// Live (not yet reaped) connections.
    pub fn open_conns(&self) -> usize {
        self.conns.live.len()
    }

    /// Open a connection; the returned client end's sends and its drop
    /// wake the loop.
    pub fn connect(&mut self) -> InProcTransport {
        let (mut client, server_end) = inproc_pair();
        let h = self.ready.handle(self.conns.insert(server_end));
        client.set_notify(Arc::new(move || h.mark()));
        client
    }

    /// Advance the virtual clock; deadlines crossed fire on the next
    /// [`InProcServer::tick`].
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Run the cycle to quiescence: serve every ready connection, pump,
    /// step the engine to idle, unpark completed fetches, expire
    /// deadlines — until a full round makes no progress — then reap the
    /// connections whose peers are gone. Every ready connection is served
    /// before the engine runs, so fetches sent together meet in its
    /// queue. Returns units of work done (requests + engine jobs +
    /// replies).
    pub fn tick(&mut self) -> usize {
        let tt = viz_telemetry::start();
        let mut total = 0;
        loop {
            let mut progress = 0;
            for token in self.ready.take_ready() {
                progress += self.conns.service(token, self.now_ns);
            }
            self.conns.server.pump();
            while self.conns.server.engine().run_one().is_some() {
                progress += 1;
            }
            progress += self.conns.unpark(self.now_ns);
            progress += self.conns.expire(self.now_ns);
            if progress == 0 {
                break;
            }
            total += progress;
        }
        self.conns.reap();
        if viz_telemetry::enabled() {
            self.ticks += 1;
            viz_telemetry::span(
                Ev::ReactorTick,
                self.ticks,
                ((total as u64) << 32) | self.open_conns() as u64,
                tt,
            );
        }
        total
    }
}

// ---------------------------------------------------------------------
// Backend dispatcher
// ---------------------------------------------------------------------

/// A TCP front end of either backend, picked by
/// [`crate::ServeConfig::backend`] — callers and the shared test suite
/// stay backend-generic.
pub enum TcpFrontend {
    /// Thread-per-connection ([`crate::TcpServer`]).
    Threads(crate::TcpServer),
    /// Single poll loop ([`ReactorTcpServer`]).
    Reactor(ReactorTcpServer),
}

impl TcpFrontend {
    /// Bind whichever backend the server's config selects.
    pub fn bind(server: Arc<Server>, addr: &str) -> io::Result<TcpFrontend> {
        match server.config().backend {
            crate::IoBackend::Threads => {
                crate::TcpServer::bind(server, addr).map(TcpFrontend::Threads)
            }
            crate::IoBackend::Reactor => {
                ReactorTcpServer::bind(server, addr).map(TcpFrontend::Reactor)
            }
        }
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        match self {
            TcpFrontend::Threads(s) => s.local_addr(),
            TcpFrontend::Reactor(s) => s.local_addr(),
        }
    }

    /// The served [`Server`].
    pub fn server(&self) -> &Arc<Server> {
        match self {
            TcpFrontend::Threads(s) => s.server(),
            TcpFrontend::Reactor(s) => s.server(),
        }
    }

    /// Stop and drain.
    pub fn shutdown(self) -> DrainReport {
        match self {
            TcpFrontend::Threads(s) => s.shutdown(),
            TcpFrontend::Reactor(s) => s.shutdown(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::transport::tests::{mixed_reply, Throttled};

    /// Segment bytes the queue holds, and how many of the front frame's the
    /// peer has already taken.
    fn held(q: &WriteQueue) -> (usize, usize) {
        let held = q.frames.iter().map(ReplyFrame::wire_len).sum();
        (held, q.frames.front().map_or(0, |f| q.at.written(&f.segments())))
    }

    /// A client that keeps two fetches in flight and reads one reply
    /// behind: the queue is never empty when the next reply is pushed, yet
    /// it never holds more than the two replies owed — sent frames are not
    /// carried along — and the peer sees every byte once, in order, with
    /// the peer's reads splitting heads and payloads alike.
    #[test]
    fn write_queue_holds_only_what_is_owed_under_pipelining() {
        let reply = |i: u32| encode_reply_frame(&mixed_reply(60, i));
        let len = reply(0).wire_len();
        let mut peer = Throttled::new(777, 9);
        let mut q = WriteQueue::default();
        let mut want = Vec::new();
        q.push(reply(0));
        want.extend(reply(0).into_vec());
        for i in 1..50 {
            q.push(reply(i));
            want.extend(reply(i).into_vec());
            assert!(!q.is_empty());
            // The peer reads one reply's worth, off the frame boundary.
            peer.budget = if i == 1 { len / 2 } else { len };
            q.flush(&mut peer).unwrap();
            let (held, sent) = held(&q);
            assert!(held <= 2 * len, "reply {i}: {held} bytes held");
            assert_eq!(held - sent, want.len() - peer.got.len());
        }
        peer.budget = usize::MAX;
        q.flush(&mut peer).unwrap();
        assert!(q.is_empty());
        assert_eq!(q.at, SegmentCursor::default());
        assert!(peer.got == want);
        assert_eq!(peer.empty_slices, 0);
    }

    /// A peer that accepts nothing (`Ok(0)`) or fails hard is reported, so
    /// the loop can reap the connection; a full socket is not an error.
    #[test]
    fn write_queue_reports_a_gone_peer() {
        struct Gone(io::ErrorKind);
        impl Write for Gone {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                if self.0 == io::ErrorKind::WriteZero {
                    Ok(0)
                } else {
                    Err(self.0.into())
                }
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let frame = || encode_reply_frame(&mixed_reply(3, 0));
        for kind in [io::ErrorKind::WriteZero, io::ErrorKind::BrokenPipe] {
            let mut q = WriteQueue::default();
            q.push(frame());
            assert_eq!(q.flush(&mut Gone(kind)).unwrap_err().kind(), kind);
        }
        let mut q = WriteQueue::default();
        q.push(frame());
        q.flush(&mut Gone(io::ErrorKind::WouldBlock)).unwrap();
        assert_eq!(held(&q), (frame().wire_len(), 0));
    }
}
