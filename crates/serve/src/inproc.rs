//! The deterministic in-process front end: every connection on one
//! steppable loop over in-process pipes and a virtual clock.
//!
//! [`InProcServer`] is what the serve tests and the soak suite drive:
//! thousands of virtual connections on one thread, nothing sleeping.
//! A [`ReadySet`] stands in for socket readiness, demand deadlines run on
//! a [`TimerWheel`] against the caller's clock, and the engine is stepped
//! inline ([`viz_fetch::FetchEngine::run_one`]), so every interleaving is
//! chosen by the test. Real sockets go through [`crate::TcpServer`].
//!
//! ## Per-connection state machine
//!
//! Both front ends run one connection state machine (`conn::Conn`). A
//! connection is either **idle** (buffered requests decode and dispatch
//! immediately) or **parked** on one in-flight `Fetch`. While parked,
//! later requests stay buffered — request→reply order per connection is
//! the same contract a [`crate::TcpServer`] connection thread keeps. Here a parked
//! fetch unparks when its demand tickets resolve
//! ([`crate::PendingFetch::poll`]) or when its deadline timer fires, in
//! which case unresolved keys report `TimedOut` and their reads stay in
//! flight for a later frame — degraded, not dropped.

use crate::conn::Conn;
use crate::inproc_pair;
use crate::server::{DefaultDispatch, Server};
use crate::transport::InProcTransport;
use std::collections::BTreeMap;
use std::sync::Arc;
use viz_fetch::{ReadySet, TimerWheel};
use viz_telemetry::EventKind as Ev;

/// The connection table over in-process pipes and a virtual clock.
/// [`InProcServer::connect`] hands back a client pipe whose sends — and
/// whose drop, a virtual hang-up — mark a [`ReadySet`] token.
/// [`InProcServer::tick`] runs the service/unpark/expire/reap cycle to
/// quiescence, with the engine stepped inline. Deadlines come off the
/// caller-advanced clock ([`InProcServer::advance`]), never the wall.
/// Tokens are never reused, so a timer that outlives its connection
/// fires into nothing.
pub struct InProcServer {
    server: Arc<Server>,
    live: BTreeMap<u64, (InProcTransport, Conn)>,
    next_token: u64,
    wheel: TimerWheel,
    ready: Arc<ReadySet>,
    now_ns: u64,
    ticks: u64,
}

impl InProcServer {
    /// Wrap a server (typically over a `workers = 0` engine).
    pub fn new(server: Arc<Server>) -> InProcServer {
        InProcServer {
            server,
            live: BTreeMap::new(),
            next_token: 0,
            wheel: TimerWheel::for_serving(),
            ready: ReadySet::new(),
            now_ns: 0,
            ticks: 0,
        }
    }

    /// The served [`Server`].
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Live (not yet reaped) connections.
    pub fn open_conns(&self) -> usize {
        self.live.len()
    }

    /// Open a connection; the returned client end's sends and its drop
    /// wake the loop.
    pub fn connect(&mut self) -> InProcTransport {
        let (mut client, server_end) = inproc_pair();
        let token = self.next_token;
        self.next_token += 1;
        self.live.insert(token, (server_end, Conn::default()));
        let h = self.ready.handle(token);
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

    /// Serve one connection's buffered frames until it parks or runs dry.
    fn service(&mut self, token: u64) -> usize {
        let Some((pipe, conn)) = self.live.get_mut(&token) else { return 0 };
        conn.service(pipe, &self.server, &DefaultDispatch, &mut self.wheel, self.now_ns, token)
    }

    /// Reply to every parked fetch whose tickets all resolved; each freed
    /// connection then serves what it has buffered. Returns replies plus
    /// frames taken.
    fn unpark(&mut self) -> usize {
        let mut freed = Vec::new();
        for (&token, (pipe, conn)) in &mut self.live {
            if conn.unpark(pipe, &self.server, &mut self.wheel) {
                freed.push(token);
            }
        }
        self.serve_freed(freed)
    }

    /// Fire the deadlines the clock has passed; each freed connection then
    /// serves what it has buffered. Returns replies plus frames taken.
    fn expire(&mut self) -> usize {
        let mut freed = Vec::new();
        for (_, token) in self.wheel.expire(self.now_ns) {
            let Some((pipe, conn)) = self.live.get_mut(&token) else { continue };
            if conn.expire(pipe, &self.server, &mut self.wheel) {
                freed.push(token);
            }
        }
        self.serve_freed(freed)
    }

    fn serve_freed(&mut self, freed: Vec<u64>) -> usize {
        freed.len() + freed.into_iter().map(|t| self.service(t)).sum::<usize>()
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
