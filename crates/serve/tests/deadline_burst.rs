//! A served frame cut off by its demand deadline is what the flight
//! recorder's `DeadlineBurst` trigger watches: one `DeadlineMiss` per
//! key the deadline cuts off, and one `Frame` span that names them.
//!
//! The telemetry gate and rings are process-global, so this is its own
//! test binary with one test: no other test can record into its window.

use std::io;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine};
use viz_serve::proto::errkind_code;
use viz_serve::{ServeClient, ServeConfig, Server, TcpServer, TcpTransport};
use viz_telemetry::flight::{self, FlightConfig, TriggerKind};
use viz_telemetry::EventKind;
use viz_volume::{BlockId, BlockKey, BlockSource, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

/// A source whose every read blocks until the gate opens, so no demand
/// key can beat the deadline however slow the machine is.
struct Gate {
    inner: MemBlockStore,
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl BlockSource for Gate {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
        drop(open);
        self.inner.read_block(key)
    }
    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        self.inner.block_bytes(key)
    }
}

/// Opens the gate when dropped: the engine's worker waits at it, and
/// shutting the server down waits for the engine, so a failing assertion
/// must open it on the way out or the test hangs instead of failing.
struct OpenOnDrop(Arc<Gate>);

impl Drop for OpenOnDrop {
    fn drop(&mut self) {
        self.0.open();
    }
}

#[test]
fn a_cut_off_frame_records_its_misses_and_fires_a_deadline_burst() {
    let burst = FlightConfig::default().deadline_burst;
    let keys = burst as u32 + 2;
    let inner = MemBlockStore::new();
    for i in 0..keys {
        inner.insert(key(i), vec![i as f32; 8]);
    }
    let gate = Arc::new(Gate { inner, open: Mutex::new(false), cv: Condvar::new() });
    let _open = OpenOnDrop(gate.clone());
    let engine = FetchEngine::spawn(
        gate.clone(),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 1, ..FetchConfig::default() },
    );
    let cfg =
        ServeConfig { demand_deadline: Some(Duration::from_millis(20)), ..Default::default() };
    let server = Server::new(Arc::new(engine), cfg);
    let tcp = TcpServer::bind(server.clone(), "127.0.0.1:0").unwrap();
    let mut viewer =
        ServeClient::new(TcpTransport::connect(&tcp.local_addr().to_string()).unwrap());
    viewer.open("viewer").unwrap();

    viz_telemetry::reset();
    flight::configure(FlightConfig::default());
    viz_telemetry::set_enabled(true);
    let generation = viewer.advance().unwrap();
    let reply = viewer.fetch((0..keys).map(key).collect(), vec![]).unwrap();
    viz_telemetry::set_enabled(false);
    let trace = viz_telemetry::drain();

    let timed_out = Err(errkind_code(io::ErrorKind::TimedOut));
    assert!(reply.blocks.iter().all(|b| b.result == timed_out), "the gate holds every read");
    assert_eq!(server.metrics().deadline_misses, u64::from(keys));
    assert_eq!(trace.count(EventKind::DeadlineMiss), keys as usize, "one event per key cut off");
    let frames: Vec<_> = trace.events.iter().filter(|e| e.kind == EventKind::Frame).collect();
    assert_eq!(frames.len(), 1, "one Frame span per answered plan");
    assert_eq!(frames[0].key, generation);
    assert_eq!(frames[0].arg, (u64::from(keys) << 8) | 1, "missing << 8 | degraded");
    let bursts = flight::take_triggers()
        .into_iter()
        .filter(|t| t.kind == TriggerKind::DeadlineBurst)
        .count();
    assert_eq!(bursts, 1, "{keys} misses inside one window are one burst of {burst}");

    gate.open();
    viewer.close().unwrap();
    tcp.shutdown();
}
