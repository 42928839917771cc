//! Reactor front ends: every connection on one poll-driven event loop.
//!
//! The thread-per-connection [`crate::TcpServer`] spends an OS thread
//! (stack, scheduler slot) per client, which caps a server at a few
//! hundred sessions. The reactor model holds *all* connections in one
//! loop built from the [`viz_fetch::reactor`] substrate: `poll(2)` for
//! socket readiness, a [`TimerWheel`] for demand deadlines (no
//! sacrificial timeout threads), and a [`viz_fetch::ReadySet`] so the
//! deterministic in-process transport runs through the *same* state
//! machine — the soak suite drives thousands of virtual connections on a
//! virtual clock and exercises exactly the code the TCP loop runs.
//!
//! ## Per-connection state machine
//!
//! A connection is either **idle** (buffered requests decode and
//! dispatch immediately) or **parked** on one in-flight `Fetch`. While
//! parked, later requests stay buffered — request→reply order per
//! connection is the same contract [`crate::serve_connection`] keeps.
//! A parked fetch unparks when its demand tickets resolve
//! ([`PendingFetch::poll`]) or when its deadline timer fires, in which
//! case unresolved keys report `TimedOut` and their reads stay in
//! flight for a later frame — degraded, not dropped.
//!
//! Pick the backend with [`crate::ServeConfig::backend`]; [`crate::TcpFrontend`]
//! dispatches on it so callers and tests are backend-generic.

use crate::proto::{self, encode_reply_frame, frame_body_len, ReplyFrame, Request, Response};
use crate::registry::SessionId;
use crate::server::{send_reply, DrainReport, Outcome, PendingFetch, Server};
use crate::transport::{InProcTransport, SegmentCursor, Transport};
use crate::{handle_request, inproc_pair};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;
use viz_fetch::reactor::{POLL_IN, POLL_OUT};
use viz_fetch::{poll_fds, PollFd, ReadySet, TimerId, TimerWheel};
use viz_telemetry::EventKind as Ev;

/// One parked `Fetch` and its (optional) deadline timer.
struct Parked {
    fetch: PendingFetch,
    timer: Option<TimerId>,
}

/// Shared per-connection protocol state: buffered inbound bytes/frames,
/// sessions opened on the connection, and the park slot.
struct ConnState {
    owned: Vec<SessionId>,
    parked: Option<Parked>,
    dead: bool,
}

impl ConnState {
    fn new() -> Self {
        ConnState { owned: Vec::new(), parked: None, dead: false }
    }

    /// Track session ownership from a response about to be sent, so the
    /// reaper can close sessions the peer abandoned.
    fn note_response(&mut self, resp: &Response) {
        match resp {
            Response::OpenAck { session } => self.owned.push(SessionId(*session)),
            Response::CloseAck { session } => self.owned.retain(|s| s.0 != *session),
            _ => {}
        }
    }
}

/// Dispatch one decoded request; `Some` is a ready reply, `None` means
/// the fetch parked in `st` (the caller arms its deadline timer).
fn dispatch(
    server: &Arc<Server>,
    st: &mut ConnState,
    req: Result<Request, proto::ProtoError>,
) -> Option<Response> {
    let resp = match req {
        Ok(req) => match handle_request(server, req) {
            Outcome::Ready(r) => r,
            Outcome::Fetch(fetch) => {
                // Issue the demand now so the engine starts on it this
                // tick; the reply completes when the tickets resolve.
                server.pump();
                st.parked = Some(Parked { fetch, timer: None });
                return None;
            }
        },
        Err(pe) => Response::Error { code: pe.code(), message: pe.to_string() },
    };
    st.note_response(&resp);
    Some(resp)
}

/// Split complete frames off the front of `rbuf`. `Err` means the
/// header itself is garbage — the stream cannot be resynchronized.
fn take_frame(rbuf: &mut Vec<u8>) -> Result<Option<Vec<u8>>, ()> {
    if rbuf.len() < 8 {
        return Ok(None);
    }
    let header: &[u8; 8] = rbuf[..8].try_into().expect("8-byte slice");
    let body = frame_body_len(header).map_err(|_| ())?;
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

struct TcpConn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wq: WriteQueue,
    st: ConnState,
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
    let mut conns: HashMap<u64, TcpConn> = HashMap::new();
    let mut next_token: u64 = 0;
    let mut wheel = TimerWheel::for_serving();
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
        let mut tokens: Vec<u64> = conns.keys().copied().collect();
        tokens.sort_unstable();
        let mut fds = Vec::with_capacity(tokens.len() + conn_base);
        fds.push(PollFd::new(listener.as_raw_fd(), POLL_IN));
        if let Some(w) = &wake {
            fds.push(PollFd::new(w.as_raw_fd(), POLL_IN));
        }
        let mut any_parked = false;
        for &t in &tokens {
            let c = &conns[&t];
            let mut ev = POLL_IN;
            if !c.wq.is_empty() {
                ev |= POLL_OUT;
            }
            any_parked |= c.st.parked.is_some();
            fds.push(PollFd::new(c.stream.as_raw_fd(), ev));
        }
        // Parked fetches resolve on engine-worker time; the wake socket
        // reports that as readiness, so the loop sleeps to the next timer
        // deadline (bounded so shutdown and accept recover within a beat
        // even if a wake races the poll). Only when the wake socket could
        // not be set up does a short parked-poll timeout stand in.
        let timeout_ms = if any_parked && wake.is_none() {
            1
        } else {
            match wheel.next_deadline_ns() {
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
                let token = next_token;
                next_token += 1;
                conns.insert(
                    token,
                    TcpConn {
                        stream,
                        rbuf: Vec::new(),
                        wq: WriteQueue::default(),
                        st: ConnState::new(),
                    },
                );
            }
        }
        // Read + dispatch on readable connections.
        for (i, &token) in tokens.iter().enumerate() {
            let fd = fds[i + conn_base];
            let Some(c) = conns.get_mut(&token) else { continue };
            if fd.readable() && !read_into(&mut c.stream, &mut c.rbuf) {
                c.st.dead = true;
            }
            process_buffered(server, &mut wheel, now_ns, token, c);
            if fd.writable() {
                flush_writes(c);
            }
        }
        // Move queued work into the engine; its workers resolve tickets.
        server.pump();
        // Unpark completed fetches, then expire missed deadlines.
        for (&token, c) in &mut conns {
            if unpark_ready(server, &mut wheel, c) {
                // The reply freed the park slot: buffered requests can
                // now dispatch without waiting for more socket bytes.
                process_buffered(server, &mut wheel, now_ns, token, c);
            }
        }
        for (_, token) in wheel.expire(now_ns) {
            if let Some(c) = conns.get_mut(&token) {
                if let Some(p) = c.st.parked.take() {
                    let resp = p.fetch.resolve_timed_out(server);
                    c.st.note_response(&resp);
                    send_response(c, &resp);
                }
            }
        }
        // Opportunistic flush (most replies fit the socket buffer).
        for c in conns.values_mut() {
            if !c.wq.is_empty() {
                flush_writes(c);
            }
        }
        // Reap dead connections: their sessions close, timers lapse as
        // tombstones.
        conns.retain(|_, c| {
            if c.st.dead {
                if let Some(p) = c.st.parked.take() {
                    if let Some(t) = p.timer {
                        wheel.cancel(t);
                    }
                }
                for id in c.st.owned.drain(..) {
                    server.close_session(id);
                }
                false
            } else {
                true
            }
        });
        if viz_telemetry::enabled() {
            ticks += 1;
            viz_telemetry::span(
                Ev::ReactorTick,
                ticks,
                ((events as u64) << 32) | conns.len() as u64,
                tt,
            );
        }
    }
    // Loop stopped: close whatever is still connected.
    if wake.is_some() {
        server.engine().set_completion_hook(None);
    }
    for (_, mut c) in conns {
        for id in c.st.owned.drain(..) {
            server.close_session(id);
        }
        let _ = c.stream.shutdown(std::net::Shutdown::Both);
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

/// Decode and dispatch buffered frames until the connection parks or
/// the buffer runs dry.
fn process_buffered(
    server: &Arc<Server>,
    wheel: &mut TimerWheel,
    now_ns: u64,
    token: u64,
    c: &mut TcpConn,
) {
    while !c.st.dead && c.st.parked.is_none() {
        let frame = match take_frame(&mut c.rbuf) {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(()) => {
                c.st.dead = true;
                break;
            }
        };
        match dispatch(server, &mut c.st, proto::decode_request(&frame)) {
            Some(resp) => send_response(c, &resp),
            None => {
                // Parked: arm the demand deadline, if the config sets one.
                if let Some(d) = server.config().demand_deadline {
                    let deadline = now_ns + d.as_nanos() as u64;
                    if let Some(p) = c.st.parked.as_mut() {
                        p.timer = Some(wheel.schedule(deadline, token));
                    }
                }
            }
        }
    }
}

/// If the parked fetch completed, send its reply. Returns `true` when
/// the park slot was freed.
fn unpark_ready(server: &Arc<Server>, wheel: &mut TimerWheel, c: &mut TcpConn) -> bool {
    let Some(p) = c.st.parked.as_mut() else { return false };
    if !p.fetch.poll() {
        return false;
    }
    let p = c.st.parked.take().unwrap();
    if let Some(t) = p.timer {
        wheel.cancel(t);
    }
    let resp = p.fetch.resolve_now(server);
    c.st.note_response(&resp);
    send_response(c, &resp);
    true
}

fn send_response(c: &mut TcpConn, resp: &Response) {
    c.wq.push(encode_reply_frame(resp));
    flush_writes(c);
}

/// Write as much queued reply data as the socket takes right now.
fn flush_writes(c: &mut TcpConn) {
    if c.wq.flush(&mut c.stream).is_err() {
        c.st.dead = true;
    }
}

// ---------------------------------------------------------------------
// Deterministic in-process reactor
// ---------------------------------------------------------------------

/// The reactor state machine over virtual connections and a virtual
/// clock: the soak suite's workhorse. [`ReactorInProcServer::connect`]
/// hands back a client pipe whose sends mark a [`ReadySet`] token —
/// the loop's stand-in for socket readability — and
/// [`ReactorInProcServer::tick`] runs the same
/// dispatch/park/unpark/expire cycle as the TCP loop, but to
/// quiescence, with the engine stepped inline
/// ([`viz_fetch::FetchEngine::run_one`]). Deadlines come off the
/// caller-advanced clock ([`ReactorInProcServer::advance`]), never the
/// wall.
pub struct ReactorInProcServer {
    server: Arc<Server>,
    ready: Arc<ReadySet>,
    wheel: TimerWheel,
    /// Token == index; dead slots tombstone as `None` so tokens stay
    /// stable for the ready set and timer wheel.
    conns: Vec<Option<VConn>>,
    now_ns: u64,
    ticks: u64,
}

struct VConn {
    t: InProcTransport,
    st: ConnState,
}

impl ReactorInProcServer {
    /// Wrap a server (typically over a `workers = 0` engine).
    pub fn new(server: Arc<Server>) -> ReactorInProcServer {
        ReactorInProcServer {
            server,
            ready: ReadySet::new(),
            wheel: TimerWheel::for_serving(),
            conns: Vec::new(),
            now_ns: 0,
            ticks: 0,
        }
    }

    /// The served [`Server`].
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// The virtual clock, in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// Live (non-tombstoned) connections.
    pub fn open_conns(&self) -> usize {
        self.conns.iter().flatten().count()
    }

    /// Open a connection; the returned client end's sends wake the loop.
    pub fn connect(&mut self) -> InProcTransport {
        let (mut client, server_end) = inproc_pair();
        let token = self.conns.len() as u64;
        let h = self.ready.handle(token);
        client.set_notify(Arc::new(move || h.mark()));
        self.conns.push(Some(VConn { t: server_end, st: ConnState::new() }));
        client
    }

    /// Advance the virtual clock; deadlines crossed fire on the next
    /// [`ReactorInProcServer::tick`].
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Probe every live connection on the next tick — the virtual
    /// counterpart of `POLLHUP`: a client end that was dropped without a
    /// `Close` is only observable by polling its pipe, so churn tests
    /// sweep periodically the way the TCP loop's `poll` reports hangups.
    pub fn sweep(&mut self) {
        for (i, slot) in self.conns.iter().enumerate() {
            if slot.is_some() {
                self.ready.mark(i as u64);
            }
        }
    }

    /// Run the reactor cycle to quiescence: drain ready connections,
    /// pump, step the engine to idle, unpark completed fetches, expire
    /// deadlines — until a full round makes no progress. Returns units of
    /// work done (requests + engine jobs + replies).
    pub fn tick(&mut self) -> usize {
        let tt = viz_telemetry::start();
        let mut total = 0;
        loop {
            let mut progress = 0;
            for token in self.ready.take_ready() {
                progress += self.service(token);
            }
            self.server.pump();
            while self.server.engine().run_one().is_some() {
                progress += 1;
            }
            progress += self.unpark();
            progress += self.expire();
            if progress == 0 {
                break;
            }
            total += progress;
        }
        self.reap();
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

    /// Dispatch buffered requests on one ready connection.
    fn service(&mut self, token: u64) -> usize {
        let Some(Some(c)) = self.conns.get_mut(token as usize) else { return 0 };
        let mut n = 0;
        while !c.st.dead && c.st.parked.is_none() {
            let frame = match c.t.try_recv() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    c.st.dead = true;
                    break;
                }
            };
            n += 1;
            match dispatch(&self.server, &mut c.st, proto::decode_request(&frame)) {
                Some(resp) => {
                    if send_reply(&mut c.t, &resp).is_err() {
                        c.st.dead = true;
                    }
                }
                None => {
                    if let Some(d) = self.server.config().demand_deadline {
                        let deadline = self.now_ns + d.as_nanos() as u64;
                        if let Some(p) = c.st.parked.as_mut() {
                            p.timer = Some(self.wheel.schedule(deadline, token));
                        }
                    }
                }
            }
        }
        n
    }

    /// Send replies for parked fetches whose tickets all resolved; the
    /// freed connections re-mark themselves so still-buffered requests
    /// dispatch on the next round.
    fn unpark(&mut self) -> usize {
        let mut sent = 0;
        for (i, slot) in self.conns.iter_mut().enumerate() {
            let Some(c) = slot else { continue };
            let Some(p) = c.st.parked.as_mut() else { continue };
            if !p.fetch.poll() {
                continue;
            }
            let p = c.st.parked.take().unwrap();
            if let Some(t) = p.timer {
                self.wheel.cancel(t);
            }
            let resp = p.fetch.resolve_now(&self.server);
            c.st.note_response(&resp);
            if send_reply(&mut c.t, &resp).is_err() {
                c.st.dead = true;
            } else {
                sent += 1;
            }
            self.ready.mark(i as u64);
        }
        sent
    }

    /// Fire deadlines the virtual clock has passed.
    fn expire(&mut self) -> usize {
        let mut fired = 0;
        for (_, token) in self.wheel.expire(self.now_ns) {
            let Some(Some(c)) = self.conns.get_mut(token as usize) else { continue };
            let Some(p) = c.st.parked.take() else { continue };
            let resp = p.fetch.resolve_timed_out(&self.server);
            c.st.note_response(&resp);
            if send_reply(&mut c.t, &resp).is_err() {
                c.st.dead = true;
            }
            fired += 1;
            self.ready.mark(token);
        }
        fired
    }

    fn reap(&mut self) {
        for slot in &mut self.conns {
            let dead = matches!(slot, Some(c) if c.st.dead);
            if dead {
                let mut c = slot.take().unwrap();
                if let Some(p) = c.st.parked.take() {
                    if let Some(t) = p.timer {
                        self.wheel.cancel(t);
                    }
                }
                for id in c.st.owned.drain(..) {
                    self.server.close_session(id);
                }
            }
        }
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
