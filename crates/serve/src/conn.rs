//! One connection's protocol, written once for both front ends: decode →
//! dispatch → park → reply → session ownership.
//!
//! A [`Conn`] holds what a connection owns — the sessions it opened, the
//! one `Fetch` it may have parked (with the virtual time its demand
//! deadline falls due), and whether the peer is gone. Front ends keep only
//! where frames come from and where replies go: the thread-per-connection
//! loop reads with a blocking `recv` and, on a park, blocks in
//! [`Conn::wait`]; the deterministic in-process server hands its
//! server-side pipe to [`Conn::service`], [`Conn::unpark`] and
//! [`Conn::expire`] every round.
//!
//! While a fetch is parked, later requests stay buffered in the pipe, so
//! replies leave in request order on both front ends.

use crate::proto::Response;
use crate::registry::SessionId;
use crate::server::{send_reply, DefaultDispatch, Outcome, PendingFetch, RequestDispatch, Server};
use crate::transport::{InProcTransport, Transport};
use std::io;
use std::sync::Arc;

/// One parked `Fetch`, and the in-process server's clock reading at which
/// its demand deadline falls due (`None`: the config sets no deadline, or
/// the front end blocks in [`Conn::wait`]).
struct Parked {
    fetch: PendingFetch,
    due_ns: Option<u64>,
}

/// One connection's protocol state (see the module docs).
#[derive(Default)]
pub(crate) struct Conn {
    /// Sessions opened on this connection and not yet closed on it.
    owned: Vec<SessionId>,
    parked: Option<Parked>,
    /// The peer is gone; the front end reaps the connection with
    /// [`Conn::close`].
    pub(crate) dead: bool,
}

impl Conn {
    /// Decode and dispatch one frame. A ready reply comes back with its
    /// session ownership noted. A `Fetch` parks, due at `due_ns`, its
    /// demand pumped into the engine at once, and `None` comes back.
    pub(crate) fn dispatch(
        &mut self,
        server: &Arc<Server>,
        dispatch: &dyn RequestDispatch,
        frame: &[u8],
        due_ns: Option<u64>,
    ) -> Option<Response> {
        match dispatch.dispatch_frame(server, frame) {
            Outcome::Ready(resp) => {
                match &resp {
                    Response::OpenAck { session } => self.owned.push(SessionId(*session)),
                    Response::CloseAck { session } => self.owned.retain(|s| s.0 != *session),
                    _ => {}
                }
                Some(resp)
            }
            Outcome::Fetch(fetch) => {
                server.pump();
                self.parked = Some(Parked { fetch, due_ns });
                None
            }
        }
    }

    /// Block until the parked fetch's reply is complete (the
    /// thread-per-connection front end).
    pub(crate) fn wait(&mut self, server: &Server) -> Response {
        self.parked.take().expect("wait needs a parked fetch").fetch.wait(server)
    }

    /// Serve buffered frames until the connection parks, runs dry, or
    /// dies. A fetch that parks is due at `now_ns` plus the config's
    /// demand deadline, if it sets one. Returns the frames taken.
    pub(crate) fn service(
        &mut self,
        pipe: &mut InProcTransport,
        server: &Arc<Server>,
        now_ns: u64,
    ) -> usize {
        let due_ns = server.config().demand_deadline.map(|d| now_ns + d.as_nanos() as u64);
        let mut taken = 0;
        while !self.dead && self.parked.is_none() {
            let Ok(next) = pipe.try_recv() else {
                self.dead = true;
                break;
            };
            let Some(frame) = next else { break };
            taken += 1;
            let Some(resp) = self.dispatch(server, &DefaultDispatch, &frame, due_ns) else { break };
            self.send(pipe, &resp);
        }
        taken
    }

    /// Reply to the parked fetch if [`PendingFetch::poll`] says its reply
    /// is complete. Returns whether a reply went out, freeing the park
    /// slot.
    pub(crate) fn unpark(&mut self, pipe: &mut InProcTransport, server: &Server) -> bool {
        let ready = self.parked.as_mut().is_some_and(|p| p.fetch.poll());
        if ready {
            self.resolve(pipe, server, io::ErrorKind::Interrupted);
        }
        ready
    }

    /// Reply to the parked fetch if its deadline is due at `now_ns`, with
    /// the keys still unresolved reporting `TimedOut` (their reads stay in
    /// flight and land in the pool for a later frame). Returns whether a
    /// reply went out.
    pub(crate) fn expire(
        &mut self,
        pipe: &mut InProcTransport,
        server: &Server,
        now_ns: u64,
    ) -> bool {
        let due = self.parked.as_ref().and_then(|p| p.due_ns).is_some_and(|due| due <= now_ns);
        if due {
            self.resolve(pipe, server, io::ErrorKind::TimedOut);
        }
        due
    }

    fn resolve(&mut self, pipe: &mut InProcTransport, server: &Server, missing: io::ErrorKind) {
        if let Some(p) = self.parked.take() {
            let resp = p.fetch.resolve(server, missing);
            self.send(pipe, &resp);
        }
    }

    fn send(&mut self, pipe: &mut InProcTransport, resp: &Response) {
        if send_reply(pipe, resp).is_err() {
            self.dead = true;
        }
    }

    /// The connection is over: close every session it opened.
    pub(crate) fn close(&mut self, server: &Server) {
        for id in self.owned.drain(..) {
            server.close_session(id);
        }
    }
}
