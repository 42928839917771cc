//! Every interleaving, to a bounded depth, of two connections driving the
//! deterministic front end: a depth-first search over what the clients
//! may do next — open a session (two at most, over both connections),
//! fetch one of two frames on a session, close it, hang up, or let the
//! server run a tick — with state hashing, so a state reached two ways is
//! expanded once. The server is not cloneable, so each path is replayed
//! from a fresh server; sends on different connections between two ticks
//! commute (each pipe buffers its own), so they are explored in
//! connection order only.
//!
//! After every step the pool holds at most its cap, which is below the
//! explored key set, and no session's generation has fallen. After every
//! tick, which runs the server to quiescence:
//!
//! - replies leave in request order, one per request;
//! - each admitted demand key resolves exactly once;
//! - nothing is served after a hang-up: of the frames a connection sent
//!   before it hung up, the server dispatches the first (its reply is the
//!   send that fails) and no other, and the connection and its sessions
//!   are gone;
//! - demand is never shed: every demand key of every frame is admitted
//!   and answered `Ok`, stale frames included;
//! - every queue is empty: no request is unanswered, the engine is idle,
//!   and a drain finds no queued demand or prefetch.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use viz_fetch::{BlockPool, FetchEngine};
use viz_serve::proto::{decode_response, encode_request};
use viz_serve::Transport;
use viz_serve::{InProcServer, InProcTransport, Request, Response, ServeConfig, Server, TraceCtx};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

/// Keys the frames name; the pool holds fewer.
const KEYS: u32 = 6;
const CAP: usize = 3;
const CONNS: usize = 2;
const MAX_OPENS: usize = 2;
const DEPTH: usize = 8;

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

/// Run `f`, naming `path` in any invariant it breaks.
fn on_path<T>(path: &[Action], f: impl FnOnce() -> T) -> T {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => v,
        Err(cause) => {
            let message = cause
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| cause.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            panic!("after {path:?}: {message}")
        }
    }
}

/// The generation a frame is sent under.
#[derive(Clone, Copy)]
enum Gen {
    /// One past the session's last: the session advances.
    Next,
    /// Generation 0: stale once the session has advanced.
    Stale,
}

/// The frames a session may fetch: demand keys, prefetch keys, generation.
const FRAMES: [(&[u32], &[u32], Gen); 2] =
    [(&[0, 1], &[2, 3], Gen::Next), (&[4, 5], &[0], Gen::Stale)];

#[derive(Clone, Copy, Debug)]
enum Action {
    Open(usize),
    /// Connection, session slot on it, frame.
    Fetch(usize, usize, usize),
    Close(usize, usize),
    HangUp(usize),
    Tick,
}

/// A request a client sent and has no reply to yet.
#[derive(Debug, Hash)]
enum Sent {
    Open,
    Fetch { session: u32, demand: Vec<BlockKey> },
    Close { session: u32 },
}

/// A session a client holds: its id, the last generation it sent, and
/// whether its `Close` is on the wire.
#[derive(Hash)]
struct Slot {
    id: u32,
    generation: u64,
    closing: bool,
}

#[derive(Default)]
struct Client {
    /// `None` once hung up.
    pipe: Option<InProcTransport>,
    sessions: Vec<Slot>,
    outstanding: VecDeque<Sent>,
    /// Hung up since the last tick, with this many frames unserved.
    hung_with: Option<usize>,
}

/// One server and its two clients, with what the server must have done.
struct World {
    inproc: InProcServer,
    server: Arc<Server>,
    pool: Arc<BlockPool>,
    clients: Vec<Client>,
    opens: usize,
    /// Connection of the last send since the last tick.
    last_sender: usize,
    /// Requests the server must have dispatched, and their demand keys.
    want_opens: u64,
    want_fetches: u64,
    want_demand: u64,
    generations: HashMap<u32, u64>,
    quiescent: bool,
}

impl World {
    fn new() -> World {
        let store = MemBlockStore::new();
        for i in 0..KEYS {
            store.insert(key(i), vec![i as f32; 4]);
        }
        let pool = Arc::new(BlockPool::with_capacity(CAP));
        let engine = FetchEngine::deterministic(Arc::new(store), pool.clone());
        let server = Server::new(Arc::new(engine), ServeConfig::default());
        let mut inproc = InProcServer::new(server.clone());
        let clients = (0..CONNS)
            .map(|_| Client { pipe: Some(inproc.connect()), ..Client::default() })
            .collect();
        World {
            inproc,
            server,
            pool,
            clients,
            opens: 0,
            last_sender: 0,
            want_opens: 0,
            want_fetches: 0,
            want_demand: 0,
            generations: HashMap::new(),
            quiescent: true,
        }
    }

    fn replay(path: &[Action]) -> World {
        let mut w = World::new();
        for &a in path {
            w.apply(a);
        }
        w
    }

    /// What the clients may do next.
    fn enabled(&self) -> Vec<Action> {
        let mut out = vec![Action::Tick];
        for (c, client) in self.clients.iter().enumerate().skip(self.last_sender) {
            if client.pipe.is_none() {
                continue;
            }
            if self.opens < MAX_OPENS {
                out.push(Action::Open(c));
            }
            for (s, slot) in client.sessions.iter().enumerate() {
                if !slot.closing {
                    out.extend((0..FRAMES.len()).map(|f| Action::Fetch(c, s, f)));
                    out.push(Action::Close(c, s));
                }
            }
            out.push(Action::HangUp(c));
        }
        out
    }

    fn send(&mut self, c: usize, req: Request, sent: Sent) {
        let client = &mut self.clients[c];
        client.pipe.as_mut().unwrap().send(&encode_request(&req)).unwrap();
        client.outstanding.push_back(sent);
        self.last_sender = c;
        self.quiescent = false;
    }

    fn apply(&mut self, a: Action) {
        match a {
            Action::Open(c) => {
                self.opens += 1;
                self.send(c, Request::Open { name: format!("c{c}") }, Sent::Open);
            }
            Action::Fetch(c, s, f) => {
                let (demand, prefetch, rule) = FRAMES[f];
                let slot = &mut self.clients[c].sessions[s];
                let generation = match rule {
                    Gen::Next => slot.generation + 1,
                    Gen::Stale => 0,
                };
                slot.generation = slot.generation.max(generation);
                let session = slot.id;
                let demand: Vec<BlockKey> = demand.iter().map(|&i| key(i)).collect();
                let prefetch = prefetch.iter().map(|&i| (key(i), 1.0)).collect();
                let req = Request::Fetch {
                    session,
                    generation,
                    demand: demand.clone(),
                    prefetch,
                    trace: TraceCtx::NONE,
                };
                self.send(c, req, Sent::Fetch { session, demand });
            }
            Action::Close(c, s) => {
                let slot = &mut self.clients[c].sessions[s];
                slot.closing = true;
                let session = slot.id;
                self.send(c, Request::Close { session }, Sent::Close { session });
            }
            Action::HangUp(c) => {
                let client = &mut self.clients[c];
                client.pipe = None;
                client.hung_with = Some(client.outstanding.len());
                self.last_sender = c;
                self.quiescent = false;
            }
            Action::Tick => {
                self.inproc.tick();
                self.after_tick();
                self.last_sender = 0;
                self.quiescent = true;
            }
        }
        self.check_step();
    }

    /// The invariants every state keeps.
    fn check_step(&mut self) {
        assert!(self.pool.len() <= CAP, "the pool holds {} over its cap of {CAP}", self.pool.len());
        for v in self.server.sessions() {
            let last = self.generations.entry(v.id.0).or_insert(0);
            assert!(v.generation >= *last, "session {} generation fell", v.id.0);
            *last = v.generation;
        }
    }

    /// Read every reply, then check the tick's invariants.
    fn after_tick(&mut self) {
        for client in &mut self.clients {
            if let Some(n) = client.hung_with.take() {
                // The first frame is dispatched; the failed send of its
                // reply ends the connection.
                if n > 0 {
                    match client.outstanding.front().unwrap() {
                        Sent::Open => self.want_opens += 1,
                        Sent::Fetch { demand, .. } => {
                            self.want_fetches += 1;
                            self.want_demand += demand.len() as u64;
                        }
                        Sent::Close { .. } => {}
                    }
                }
                client.outstanding.clear();
                client.sessions.clear();
                continue;
            }
            let Some(pipe) = client.pipe.as_mut() else { continue };
            while let Some(frame) = pipe.try_recv().unwrap() {
                let resp = decode_response(&frame).unwrap();
                let Some(sent) = client.outstanding.pop_front() else {
                    panic!("a second reply to one request: {resp:?}");
                };
                match (sent, resp) {
                    (Sent::Open, Response::OpenAck { session }) => {
                        self.want_opens += 1;
                        client.sessions.push(Slot { id: session, generation: 0, closing: false });
                    }
                    (
                        Sent::Fetch { session, demand },
                        Response::FetchReply { session: s, blocks, .. },
                    ) if s == session => {
                        self.want_fetches += 1;
                        self.want_demand += demand.len() as u64;
                        let keys: Vec<BlockKey> = blocks.iter().map(|b| b.key).collect();
                        assert_eq!(keys, demand, "demand shed: the reply lacks demand slots");
                        for b in &blocks {
                            assert!(b.result.is_ok(), "demand shed: {:?} failed", b.key);
                        }
                    }
                    (Sent::Close { session }, Response::CloseAck { session: s })
                        if s == session =>
                    {
                        client.sessions.retain(|slot| slot.id != session);
                    }
                    (sent, resp) => panic!("reply out of request order: {resp:?} for {sent:?}"),
                }
            }
        }
        let m = self.server.metrics();
        assert_eq!(
            m.demand_served + m.demand_errors,
            m.demand_admitted,
            "an admitted demand key did not resolve exactly once"
        );
        assert_eq!(m.demand_admitted, self.want_demand, "demand shed at admission");
        assert_eq!(
            (m.sessions_opened, m.fetch_requests),
            (self.want_opens, self.want_fetches),
            "the server dispatched a frame after a hang-up"
        );
        let live = self.clients.iter().filter(|c| c.pipe.is_some()).count();
        assert_eq!(self.inproc.open_conns(), live, "a hung-up connection was not reaped");
        let mut held: Vec<u32> =
            self.clients.iter().flat_map(|c| c.sessions.iter().map(|s| s.id)).collect();
        let mut registered: Vec<u32> = self.server.sessions().iter().map(|v| v.id.0).collect();
        held.sort_unstable();
        registered.sort_unstable();
        assert_eq!(registered, held, "a session outlived its connection");
        for (c, client) in self.clients.iter().enumerate() {
            assert!(client.outstanding.is_empty(), "queue not empty: connection {c} unanswered");
        }
        assert_eq!(self.server.engine().queue_depths(), (0, 0), "queue not empty: engine");
    }

    /// Drain the server (the world is spent after this): at quiescence
    /// nothing is queued.
    fn check_drain(&self) {
        let report = self.server.drain();
        assert_eq!(
            (report.demand_flushed, report.prefetch_dropped),
            (0, 0),
            "queue not empty: the scheduler"
        );
    }

    /// What decides the future: each client's sessions and unanswered
    /// requests, the registry's generations, and the pool's resident set
    /// (not its order). The running counters are left out.
    fn state_hash(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.opens.hash(&mut h);
        self.last_sender.hash(&mut h);
        for c in &self.clients {
            (c.pipe.is_some(), &c.sessions, &c.outstanding, c.hung_with).hash(&mut h);
        }
        for v in self.server.sessions() {
            (v.id.0, v.generation).hash(&mut h);
        }
        for i in 0..KEYS {
            self.pool.contains(key(i)).hash(&mut h);
        }
        h.finish()
    }
}

#[test]
fn every_interleaving_keeps_the_connection_invariants() {
    let t0 = Instant::now();
    let mut seen = HashSet::new();
    let mut stack: Vec<Vec<Action>> = vec![Vec::new()];
    let (mut states, mut deepest, mut evicting) = (0usize, 0usize, false);
    while let Some(path) = stack.pop() {
        let w = on_path(&path, || World::replay(&path));
        if !seen.insert(w.state_hash()) {
            continue;
        }
        states += 1;
        deepest = deepest.max(path.len());
        evicting |= w.pool.len() == CAP;
        if path.len() < DEPTH {
            for a in w.enabled() {
                let mut next = path.clone();
                next.push(a);
                stack.push(next);
            }
        }
        if w.quiescent {
            on_path(&path, || w.check_drain());
        }
    }
    eprintln!("{states} states to depth {deepest} in {:?}", t0.elapsed());
    assert!(evicting, "the explored frames must fill the pool");
    assert!(states > 1000, "{states} states");
}
