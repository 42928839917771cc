//! Deterministic 1 000-session churn soak over the in-process server.
//!
//! Everything runs on one thread, on a virtual clock, through
//! [`InProcServer`] — the same connection table and per-connection state
//! machine the TCP reactor runs, minus the kernel. A thousand live
//! sessions churn for several rounds (each round: every client fetches,
//! a cohort leaves — some politely, some by vanishing — and a new cohort
//! joins) while the suite asserts the invariants the reactor exists to
//! keep:
//!
//! - **session ids are never reused**, across opens, closes, and drops;
//! - **demand is never shed and never errors** — every demanded block
//!   comes back with its payload, every round;
//! - **memory stays bounded**: the pool never exceeds the distinct key
//!   set, engine queues and the scheduler return to zero after every
//!   round, and closed sessions leave nothing behind.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine};
use viz_serve::{InProcServer, InProcTransport, ServeClient, ServeConfig, Server};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

const DISTINCT_KEYS: u32 = 256;
const SESSIONS: usize = 1_000;
const CHURN: usize = 100;
const ROUNDS: usize = 5;

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i % DISTINCT_KEYS))
}

fn soak_server() -> InProcServer {
    let store = MemBlockStore::new();
    for i in 0..DISTINCT_KEYS {
        store.insert(key(i), vec![i as f32; 16]);
    }
    let engine = FetchEngine::spawn(
        Arc::new(store),
        Arc::new(BlockPool::new()),
        // workers = 0: the in-process server steps the engine inline.
        FetchConfig::deterministic(),
    );
    let server = Server::new(
        Arc::new(engine),
        ServeConfig {
            max_sessions: SESSIONS + CHURN + 1,
            engine_queue_target: 8 * 1024,
            shed_queue_depth: 64 * 1024,
            downgrade_queue_depth: 64 * 1024,
            demand_deadline: Some(Duration::from_millis(50)),
            ..ServeConfig::default()
        },
    );
    InProcServer::new(server)
}

struct SoakClient {
    client: ServeClient<InProcTransport>,
    session: u32,
}

/// Open `n` fresh sessions (pipelined: all sends, one tick, all acks),
/// recording ids in `seen` and asserting none was ever handed out before.
fn open_cohort(reactor: &mut InProcServer, n: usize, seen: &mut HashSet<u32>) -> Vec<SoakClient> {
    let mut cohort: Vec<SoakClient> = (0..n)
        .map(|i| SoakClient {
            client: ServeClient::new(reactor.connect()),
            session: u32::MAX - i as u32,
        })
        .collect();
    for c in &mut cohort {
        c.client.send_open("soak").unwrap();
    }
    reactor.tick();
    for c in &mut cohort {
        let id = c.client.recv_open().unwrap();
        assert!(seen.insert(id), "session id {id} was reused");
        c.session = id;
    }
    cohort
}

#[test]
fn thousand_session_churn_soak() {
    let mut reactor = soak_server();
    let mut seen = HashSet::new();
    let mut clients = open_cohort(&mut reactor, SESSIONS, &mut seen);
    let mut expected_served: u64 = 0;

    for round in 0..ROUNDS {
        // Every live session asks for two demand blocks and speculates on
        // two more — all sends land before a single tick runs, the way a
        // poll loop sees a burst of simultaneously-readable sockets.
        for (i, c) in clients.iter_mut().enumerate() {
            let base = (round * 7 + i * 2) as u32;
            c.client
                .send_fetch(
                    0,
                    vec![key(base), key(base + 1)],
                    vec![(key(base + 64), 0.9), (key(base + 65), 0.4)],
                )
                .unwrap();
        }
        reactor.tick();
        for c in &mut clients {
            let got = c.client.recv_fetch().unwrap();
            assert_eq!(got.blocks.len(), 2);
            for reply in &got.blocks {
                let data = reply.result.as_ref().unwrap_or_else(|code| {
                    panic!("round {round}: demand errored with code {code}")
                });
                assert_eq!(data[0], (reply.key.block.0 % DISTINCT_KEYS) as f32);
            }
            assert_eq!(got.shed, 0, "round {round}: prefetch shed under generous quotas");
            expected_served += 2;
        }

        // Churn: the oldest cohort leaves — half politely, half by
        // dropping the pipe mid-session — and a fresh cohort joins.
        let leavers: Vec<SoakClient> = clients.drain(..CHURN).collect();
        let mut polite = Vec::new();
        for (i, mut c) in leavers.into_iter().enumerate() {
            if i % 2 == 0 {
                c.client.send_close().unwrap();
                polite.push(c);
            }
            // Odd leavers drop here: no Close, the pipe just dies, and
            // its drop marks the connection ready like a socket's hangup.
        }
        reactor.tick();
        for c in &mut polite {
            c.client.close_ack();
        }
        drop(polite);
        // Every leaver's pipe has now hung up; their sessions must be gone
        // before the new cohort opens.
        reactor.tick();
        clients.extend(open_cohort(&mut reactor, CHURN, &mut seen));

        // Bounded memory, checked every round: queues fully drain, the
        // pool never outgrows the distinct key set, and the registry
        // holds exactly the live sessions.
        let server = reactor.server().clone();
        assert_eq!(server.engine().queue_depths(), (0, 0), "round {round}: engine not drained");
        assert!(
            server.engine().pool().len() <= DISTINCT_KEYS as usize,
            "round {round}: pool outgrew the key universe"
        );
        assert_eq!(server.sessions().len(), SESSIONS, "round {round}: session leak");
        assert_eq!(reactor.open_conns(), SESSIONS, "round {round}: connection leak");
        reactor.advance(16_000_000); // 16 ms of virtual time per round
    }

    let m = reactor.server().metrics();
    assert_eq!(m.demand_errors, 0, "no demand may fail in the soak");
    assert_eq!(m.demand_served, expected_served);
    assert_eq!(m.prefetch_shed, 0);
    assert_eq!(m.sessions_opened as usize, seen.len());
    assert_eq!(seen.len(), SESSIONS + ROUNDS * CHURN);
    // Ids are dense and monotone: the registry never recycled one.
    assert_eq!(seen.iter().max().copied(), Some(seen.len() as u32));

    // Everyone leaves; the server ends empty.
    for c in &mut clients {
        c.client.send_close().unwrap();
    }
    reactor.tick();
    for c in &mut clients {
        c.client.close_ack();
    }
    drop(clients);
    reactor.tick();
    assert_eq!(reactor.server().sessions().len(), 0);
    assert_eq!(reactor.open_conns(), 0);
    assert_eq!(reactor.tick(), 0, "a quiescent reactor does no work");
}

trait SoakClientExt {
    fn close_ack(&mut self);
}

impl SoakClientExt for ServeClient<InProcTransport> {
    fn close_ack(&mut self) {
        match self.recv_response().unwrap() {
            viz_serve::Response::CloseAck { .. } => {}
            other => panic!("expected CloseAck, got {other:?}"),
        }
    }
}
