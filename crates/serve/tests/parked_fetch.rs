//! A parked `Fetch` on the in-process server, with a real engine worker
//! holding the one read it waits on: its demand deadline fires on the
//! virtual clock, and a client that hangs up while it is parked is reaped
//! once the fetch resolves.

use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine};
use viz_serve::proto::{decode_response, encode_request, errkind_code};
use viz_serve::{
    InProcServer, InProcTransport, Request, Response, ServeConfig, Server, TraceCtx, Transport,
};
use viz_volume::{BlockId, BlockKey, BlockSource, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

/// A source whose reads of one key block until [`Gate::open`]; every
/// other key reads straight through.
struct Gate {
    inner: MemBlockStore,
    gated: BlockKey,
    /// `(entered, open)`: a read of the gated key has started; the gate
    /// is open.
    state: Mutex<(bool, bool)>,
    cv: Condvar,
    gated_reads: AtomicUsize,
}

impl Gate {
    fn new(n: u32, gated: BlockKey) -> Arc<Gate> {
        let inner = MemBlockStore::new();
        for i in 0..n {
            inner.insert(key(i), vec![i as f32; 16]);
        }
        Arc::new(Gate {
            inner,
            gated,
            state: Mutex::new((false, false)),
            cv: Condvar::new(),
            gated_reads: AtomicUsize::new(0),
        })
    }

    /// Block until a read of the gated key is waiting at the gate.
    fn wait_entered(&self) {
        let mut st = self.state.lock().unwrap();
        while !st.0 {
            st = self.cv.wait(st).unwrap();
        }
    }

    fn open(&self) {
        self.state.lock().unwrap().1 = true;
        self.cv.notify_all();
    }
}

impl BlockSource for Gate {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        if key == self.gated {
            self.gated_reads.fetch_add(1, Ordering::SeqCst);
            let mut st = self.state.lock().unwrap();
            st.0 = true;
            self.cv.notify_all();
            while !st.1 {
                st = self.cv.wait(st).unwrap();
            }
        }
        self.inner.read_block(key)
    }
    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        self.inner.block_bytes(key)
    }
}

/// Opens the gate when dropped. The engine's worker is blocked at the
/// gate, and dropping the engine joins it: a failing assertion must open
/// the gate on the way out, or the test hangs instead of failing.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

/// A server over a one-worker engine whose worker is blocked reading
/// key 0 at the gate, with key 1 already resident. A demand for key 0
/// coalesces onto that read, so the in-process server's inline engine
/// step has nothing to run and the fetch stays parked until the gate
/// opens.
fn gated_server(cfg: ServeConfig) -> (Arc<Server>, Arc<Gate>) {
    let gate = Gate::new(4, key(0));
    let engine = FetchEngine::spawn(
        gate.clone(),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 1, ..FetchConfig::default() },
    );
    engine.get(key(1)).unwrap();
    assert!(engine.prefetch(key(0), 1.0));
    gate.wait_entered();
    (Server::new(Arc::new(engine), cfg), gate)
}

fn send(pipe: &mut InProcTransport, req: &Request) {
    pipe.send(&encode_request(req)).unwrap();
}

fn recv(pipe: &mut InProcTransport) -> Response {
    let frame = pipe.try_recv().unwrap().expect("a reply is waiting");
    decode_response(&frame).unwrap()
}

fn open(inproc: &mut InProcServer, pipe: &mut InProcTransport) -> u32 {
    send(pipe, &Request::Open { name: "viewer".into() });
    inproc.tick();
    match recv(pipe) {
        Response::OpenAck { session } => session,
        other => panic!("expected OpenAck, got {other:?}"),
    }
}

fn fetch(session: u32, demand: &[BlockKey]) -> Request {
    Request::Fetch {
        session,
        generation: 0,
        demand: demand.to_vec(),
        prefetch: vec![],
        trace: TraceCtx::NONE,
    }
}

#[test]
fn demand_deadline_fires_on_the_virtual_clock() {
    const DEADLINE: Duration = Duration::from_millis(50);
    let cfg = ServeConfig { demand_deadline: Some(DEADLINE), ..ServeConfig::default() };
    let (server, gate) = gated_server(cfg);
    let _open = OpenOnDrop(gate.clone());
    let mut inproc = InProcServer::new(server.clone());
    let mut pipe = inproc.connect();
    let session = open(&mut inproc, &mut pipe);

    // The fetch parks on key 0's read; the Stats waits behind it.
    send(&mut pipe, &fetch(session, &[key(0), key(1)]));
    send(&mut pipe, &Request::Stats);
    inproc.tick();
    inproc.advance(DEADLINE.as_nanos() as u64 - 1);
    inproc.tick();
    assert!(pipe.try_recv().unwrap().is_none(), "replied 1 ns before the deadline");

    inproc.advance(1);
    inproc.tick();
    match recv(&mut pipe) {
        Response::FetchReply { blocks, .. } => {
            assert_eq!(blocks.len(), 2);
            assert_eq!(blocks[0].key, key(0));
            assert_eq!(blocks[0].result, Err(errkind_code(io::ErrorKind::TimedOut)));
            assert_eq!(blocks[1].key, key(1));
            assert_eq!(blocks[1].result.as_deref(), Ok(&vec![1.0; 16]));
        }
        other => panic!("expected FetchReply, got {other:?}"),
    }
    assert_eq!(server.metrics().deadline_misses, 1, "the deadline cut off key 0 alone");
    match recv(&mut pipe) {
        Response::StatsReply { .. } => {}
        other => panic!("expected the queued StatsReply next, got {other:?}"),
    }
    assert!(pipe.try_recv().unwrap().is_none());

    // The timed-out read was left in flight, not dropped: it lands in the
    // pool, and the next frame hits without a second source read.
    gate.open();
    server.engine().sync();
    assert!(server.engine().pool().contains(key(0)));
    send(&mut pipe, &fetch(session, &[key(0)]));
    inproc.tick();
    match recv(&mut pipe) {
        Response::FetchReply { blocks, .. } => {
            assert_eq!(blocks[0].result.as_deref(), Ok(&vec![0.0; 16]));
        }
        other => panic!("expected FetchReply, got {other:?}"),
    }
    assert_eq!(gate.gated_reads.load(Ordering::SeqCst), 1);
}

#[test]
fn a_client_that_hangs_up_while_its_fetch_is_parked_is_reaped() {
    let (server, gate) = gated_server(ServeConfig::default());
    let _open = OpenOnDrop(gate.clone());
    let mut inproc = InProcServer::new(server.clone());
    let mut bystander = inproc.connect();
    let kept = open(&mut inproc, &mut bystander);
    let mut pipe = inproc.connect();
    let session = open(&mut inproc, &mut pipe);

    send(&mut pipe, &fetch(session, &[key(0)]));
    inproc.tick();
    drop(pipe);
    inproc.tick();
    assert_eq!(inproc.open_conns(), 2);
    assert_eq!(server.sessions().len(), 2, "the session went while its fetch was parked");
    let closed = server.metrics().sessions_closed;

    // The fetch resolves, its reply finds no peer, and the connection is
    // reaped with its session.
    gate.open();
    server.engine().sync();
    inproc.tick();
    assert_eq!(inproc.open_conns(), 1);
    let ids: Vec<u32> = server.sessions().iter().map(|s| s.id.0).collect();
    assert_eq!(ids, vec![kept]);
    assert_eq!(server.metrics().sessions_closed, closed + 1);
}
