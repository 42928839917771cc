//! One connection's protocol, written once for every front end: decode →
//! dispatch → park → reply → session ownership.
//!
//! A [`Conn`] holds what a connection owns — the sessions it opened, the
//! one `Fetch` it may have parked (with that fetch's deadline timer), and
//! whether the peer is gone. Front ends keep only where frames come from
//! and where replies go: the thread-per-connection loop reads with a
//! blocking `recv` and, on a park, blocks in [`Conn::wait`]; the poll-driven
//! front ends (the TCP reactor and the deterministic in-process server)
//! hand a [`Pipe`] to [`Conn::service`], [`Conn::unpark`] and
//! [`Conn::expire`].
//!
//! While a fetch is parked, later requests stay buffered in the pipe, so
//! replies leave in request order on every front end.

use crate::proto::Response;
use crate::registry::SessionId;
use crate::server::{Outcome, PendingFetch, RequestDispatch, Server};
use std::io;
use std::sync::Arc;
use viz_fetch::{TimerId, TimerWheel};

/// Where a poll-driven connection's frames come from and its replies go.
pub(crate) trait Pipe {
    /// The next whole request frame, without blocking: `Ok(None)` when
    /// none is buffered, `Err` when the peer is gone or the stream cannot
    /// be resynchronized.
    fn next_frame(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// Send or queue one reply; `Err` when the peer is gone.
    fn reply(&mut self, resp: &Response) -> io::Result<()>;
}

/// One parked `Fetch` and its deadline timer, if the config sets one.
struct Parked {
    fetch: PendingFetch,
    timer: Option<TimerId>,
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
    /// Whether a `Fetch` is waiting for its demand outcomes.
    pub(crate) fn is_parked(&self) -> bool {
        self.parked.is_some()
    }

    /// Decode and dispatch one frame. A ready reply comes back with its
    /// session ownership noted. A `Fetch` parks, its demand pumped into the
    /// engine at once, and `None` comes back.
    pub(crate) fn dispatch(
        &mut self,
        server: &Arc<Server>,
        dispatch: &dyn RequestDispatch,
        frame: &[u8],
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
                self.parked = Some(Parked { fetch, timer: None });
                None
            }
        }
    }

    /// Block until the parked fetch's reply is complete (the
    /// thread-per-connection front end).
    pub(crate) fn wait(&mut self, server: &Server) -> Response {
        let parked = self.parked.take().expect("wait needs a parked fetch");
        parked.fetch.wait(server)
    }

    /// Serve buffered frames until the connection parks, runs dry, or
    /// dies. A fetch that parks gets its demand deadline on `wheel`, due
    /// at `now_ns` plus the config's deadline and firing with `token`.
    /// Returns the frames taken.
    pub(crate) fn service(
        &mut self,
        pipe: &mut impl Pipe,
        server: &Arc<Server>,
        dispatch: &dyn RequestDispatch,
        wheel: &mut TimerWheel,
        now_ns: u64,
        token: u64,
    ) -> usize {
        let deadline = server.config().demand_deadline;
        let mut taken = 0;
        while !self.dead && self.parked.is_none() {
            let frame = match pipe.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            };
            taken += 1;
            let Some(resp) = self.dispatch(server, dispatch, &frame) else {
                if let (Some(d), Some(p)) = (deadline, &mut self.parked) {
                    p.timer = Some(wheel.schedule(now_ns + d.as_nanos() as u64, token));
                }
                break;
            };
            self.send(pipe, &resp);
        }
        taken
    }

    /// Reply to the parked fetch if [`PendingFetch::poll`] says its reply
    /// is complete. Returns whether a reply went out, freeing the park
    /// slot.
    pub(crate) fn unpark(
        &mut self,
        pipe: &mut impl Pipe,
        server: &Server,
        wheel: &mut TimerWheel,
    ) -> bool {
        let ready = self.parked.as_mut().is_some_and(|p| p.fetch.poll());
        if ready {
            self.resolve(pipe, server, wheel, io::ErrorKind::Interrupted);
        }
        ready
    }

    /// The parked fetch's deadline passed: reply now, with the keys still
    /// unresolved reporting `TimedOut` (their reads stay in flight and land
    /// in the pool for a later frame). Returns whether a reply went out.
    pub(crate) fn expire(
        &mut self,
        pipe: &mut impl Pipe,
        server: &Server,
        wheel: &mut TimerWheel,
    ) -> bool {
        if self.parked.is_none() {
            return false;
        }
        self.resolve(pipe, server, wheel, io::ErrorKind::TimedOut);
        true
    }

    fn resolve(
        &mut self,
        pipe: &mut impl Pipe,
        server: &Server,
        wheel: &mut TimerWheel,
        missing: io::ErrorKind,
    ) {
        let Some(p) = self.parked.take() else { return };
        if let Some(t) = p.timer {
            wheel.cancel(t);
        }
        let resp = p.fetch.resolve(server, missing);
        self.send(pipe, &resp);
    }

    fn send(&mut self, pipe: &mut impl Pipe, resp: &Response) {
        if pipe.reply(resp).is_err() {
            self.dead = true;
        }
    }

    /// The connection is over: cancel a parked fetch's timer and close
    /// every session it opened.
    pub(crate) fn close(&mut self, server: &Server, wheel: Option<&mut TimerWheel>) {
        if let (Some(Parked { timer: Some(t), .. }), Some(wheel)) = (self.parked.take(), wheel) {
            wheel.cancel(t);
        }
        for id in self.owned.drain(..) {
            server.close_session(id);
        }
    }
}
