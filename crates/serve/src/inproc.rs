//! The deterministic in-process front end: every connection on one
//! steppable loop over in-process pipes and a virtual clock.
//!
//! [`InProcServer`] is what the serve tests and the soak suite drive:
//! thousands of virtual connections on one thread, nothing sleeping.
//! Each round polls every pipe (an idle one costs one `try_recv`), and
//! the engine is stepped inline ([`viz_fetch::FetchEngine::run_one`]), so
//! every interleaving is chosen by the test. Each connection runs the
//! state machine a [`crate::TcpServer`] connection thread runs
//! (`conn::Conn`, request→reply order kept). Here a parked fetch replies
//! when its demand tickets resolve ([`crate::PendingFetch::poll`]) or when
//! the clock reaches its due time, in which case unresolved keys report
//! `TimedOut` and their reads stay in flight for a later frame —
//! degraded, not dropped.

use crate::conn::Conn;
use crate::inproc_pair;
use crate::server::Server;
use crate::transport::InProcTransport;
use std::sync::Arc;
use viz_telemetry::EventKind as Ev;

/// The connection table (see the module docs). Dropping a client pipe is
/// a virtual hang-up; deadlines come off the caller-advanced clock
/// ([`InProcServer::advance`]), never the wall.
pub struct InProcServer {
    server: Arc<Server>,
    /// Live connections, oldest first: the order each round serves them.
    live: Vec<(InProcTransport, Conn)>,
    now_ns: u64,
    ticks: u64,
}

impl InProcServer {
    /// Wrap a server (typically over a `workers = 0` engine).
    pub fn new(server: Arc<Server>) -> InProcServer {
        InProcServer { server, live: Vec::new(), now_ns: 0, ticks: 0 }
    }

    /// The served [`Server`].
    pub fn server(&self) -> &Arc<Server> {
        &self.server
    }

    /// Live (not yet reaped) connections.
    pub fn open_conns(&self) -> usize {
        self.live.len()
    }

    /// Open a connection and return its client end.
    pub fn connect(&mut self) -> InProcTransport {
        let (client, server_end) = inproc_pair();
        self.live.push((server_end, Conn::default()));
        client
    }

    /// Advance the virtual clock; deadlines crossed fire on the next
    /// [`InProcServer::tick`].
    pub fn advance(&mut self, ns: u64) {
        self.now_ns += ns;
    }

    /// Run the cycle to quiescence: serve every connection's buffered
    /// frames, pump, step the engine to idle, then reply to each parked
    /// fetch that completed or fell due — until a full round makes no
    /// progress — then reap the connections whose peers are gone. Every
    /// connection is served before the engine runs, so fetches sent
    /// together meet in its queue. Returns units of work done (requests +
    /// engine jobs + replies).
    pub fn tick(&mut self) -> usize {
        let tt = viz_telemetry::start();
        let server = &self.server;
        let mut total = 0;
        loop {
            let mut progress = 0;
            for (pipe, conn) in &mut self.live {
                progress += conn.service(pipe, server, self.now_ns);
            }
            server.pump();
            while server.engine().run_one().is_some() {
                progress += 1;
            }
            for (pipe, conn) in &mut self.live {
                let replied = conn.unpark(pipe, server) || conn.expire(pipe, server, self.now_ns);
                progress += usize::from(replied);
            }
            if progress == 0 {
                break;
            }
            total += progress;
        }
        // Drop dead connections: their sessions close.
        self.live.retain_mut(|(_, conn)| {
            if conn.dead {
                conn.close(server);
            }
            !conn.dead
        });
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
