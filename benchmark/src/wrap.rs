//! Measurement from outside: benchmark-owned wrappers on the program's
//! public `BlockSource`, `Transport` and `PeerLink` traits, and the probe
//! they report to. No program code is edited and `viz-telemetry` stays off.

use crate::adapter::{
    decode_response, encode_request, BlockKey, BlockSource, PeerLink, Request, Response, Transport,
};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One source read as the wrapper saw it (ns since the probe's epoch).
#[derive(Debug, Clone, Copy)]
pub struct ReadRec {
    pub key: BlockKey,
    pub node: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Frame the first viewer was on when the read started.
    pub frame: u32,
    pub bytes: u32,
}

/// Shared by every wrapper of one pass.
pub struct Probe {
    epoch: Instant,
    /// Sub-frame stamps and per-frame sampling are only taken when set.
    pub traced: bool,
    pub frame_now: AtomicU32,
    reads: Mutex<Vec<ReadRec>>,
    /// Completion time of each key's first successful read.
    read_done: Mutex<HashMap<BlockKey, u64>>,
}

impl Probe {
    pub fn new(traced: bool) -> Arc<Probe> {
        Arc::new(Probe {
            epoch: Instant::now(),
            traced,
            frame_now: AtomicU32::new(0),
            reads: Mutex::new(Vec::with_capacity(1 << 16)),
            read_done: Mutex::new(HashMap::with_capacity(1 << 15)),
        })
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// How many of `keys` had their source read finished before `at_ns`.
    pub fn ready_before(&self, keys: impl Iterator<Item = BlockKey>, at_ns: u64) -> u32 {
        let done = self.read_done.lock().expect("probe lock");
        keys.filter(|k| done.get(k).is_some_and(|&t| t <= at_ns)).count() as u32
    }

    pub fn take_reads(&self) -> Vec<ReadRec> {
        std::mem::take(&mut *self.reads.lock().expect("probe lock"))
    }
}

/// The `BlockSource` the servers read through. Maps every timestep onto
/// the one set of files written at set-up (time-stepped playback: each lap
/// of a flight is cold data for the never-evicting pool, without writing
/// the dataset once per lap) and stamps every read.
pub struct LapSource {
    inner: Arc<dyn BlockSource>,
    probe: Arc<Probe>,
    node: u32,
}

impl LapSource {
    pub fn new(inner: Arc<dyn BlockSource>, probe: Arc<Probe>, node: u32) -> Arc<LapSource> {
        Arc::new(LapSource { inner, probe, node })
    }

    fn on_disk(key: BlockKey) -> BlockKey {
        BlockKey::new(key.var, 0, key.block)
    }
}

impl BlockSource for LapSource {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        let start_ns = self.probe.now_ns();
        let frame = self.probe.frame_now.load(Ordering::Relaxed);
        let result = self.inner.read_block(Self::on_disk(key));
        let end_ns = self.probe.now_ns();
        if let Ok(data) = &result {
            let bytes = (data.len() * 4) as u32;
            self.probe.read_done.lock().expect("probe lock").entry(key).or_insert(end_ns);
            let rec = ReadRec { key, node: self.node, start_ns, end_ns, frame, bytes };
            self.probe.reads.lock().expect("probe lock").push(rec);
        }
        result
    }

    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        self.inner.block_bytes(Self::on_disk(key))
    }
}

/// What one connection moved, and (traced) how long each step of its
/// round trips took since the viewer last called [`LinkStats::take`].
#[derive(Default)]
pub struct LinkStats {
    pub tx_bytes: AtomicU64,
    pub rx_bytes: AtomicU64,
    pub round_trips: AtomicU64,
    enc_ns: AtomicU64,
    send_ns: AtomicU64,
    wait_ns: AtomicU64,
    dec_ns: AtomicU64,
    /// First send start and last receive end since the last `take`.
    first_send_ns: AtomicU64,
    wait_start_ns: AtomicU64,
    last_recv_ns: AtomicU64,
}

/// One frame's worth of a link's step times (ns).
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkSteps {
    pub enc: u64,
    pub send: u64,
    pub wait: u64,
    pub dec: u64,
    pub first_send_ns: u64,
    pub wait_start_ns: u64,
    pub last_recv_ns: u64,
}

impl LinkSteps {
    pub fn total(&self) -> u64 {
        self.enc + self.send + self.wait + self.dec
    }
}

impl LinkStats {
    pub fn take(&self) -> LinkSteps {
        LinkSteps {
            enc: self.enc_ns.swap(0, Ordering::Relaxed),
            send: self.send_ns.swap(0, Ordering::Relaxed),
            wait: self.wait_ns.swap(0, Ordering::Relaxed),
            dec: self.dec_ns.swap(0, Ordering::Relaxed),
            first_send_ns: self.first_send_ns.swap(0, Ordering::Relaxed),
            wait_start_ns: self.wait_start_ns.swap(0, Ordering::Relaxed),
            last_recv_ns: self.last_recv_ns.swap(0, Ordering::Relaxed),
        }
    }
}

/// A `Transport` that counts bytes and, when traced, times send and wait.
pub struct StampedTransport<T: Transport> {
    inner: T,
    stats: Arc<LinkStats>,
    probe: Arc<Probe>,
}

impl<T: Transport> StampedTransport<T> {
    pub fn new(inner: T, stats: Arc<LinkStats>, probe: Arc<Probe>) -> Self {
        StampedTransport { inner, stats, probe }
    }
}

impl<T: Transport> Transport for StampedTransport<T> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.stats.tx_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.stats.round_trips.fetch_add(1, Ordering::Relaxed);
        if !self.probe.traced {
            return self.inner.send(frame);
        }
        let t0 = self.probe.now_ns();
        let result = self.inner.send(frame);
        let t1 = self.probe.now_ns();
        self.stats.send_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        let _ =
            self.stats.first_send_ns.compare_exchange(0, t0, Ordering::Relaxed, Ordering::Relaxed);
        self.stats.wait_start_ns.store(t1, Ordering::Relaxed);
        result
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        if !self.probe.traced {
            let frame = self.inner.recv()?;
            self.stats.rx_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
            return Ok(frame);
        }
        let t0 = self.probe.now_ns();
        let frame = self.inner.recv()?;
        let t1 = self.probe.now_ns();
        self.stats.rx_bytes.fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.stats.wait_ns.fetch_add(t1 - t0, Ordering::Relaxed);
        self.stats.last_recv_ns.store(t1, Ordering::Relaxed);
        Ok(frame)
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.try_recv()
    }
}

/// The `PeerLink` the router dials nodes through: the program's codec
/// around a [`StampedTransport`], so encode and decode are timed too.
pub struct BenchLink<T: Transport> {
    t: StampedTransport<T>,
}

impl<T: Transport> BenchLink<T> {
    pub fn new(t: StampedTransport<T>) -> Self {
        BenchLink { t }
    }
}

impl<T: Transport> PeerLink for BenchLink<T> {
    fn round_trip(&mut self, req: &Request) -> io::Result<Response> {
        if !self.t.probe.traced {
            self.t.send(&encode_request(req))?;
            return Ok(decode_response(&self.t.recv()?)?);
        }
        let t0 = self.t.probe.now_ns();
        let frame = encode_request(req);
        self.t.stats.enc_ns.fetch_add(self.t.probe.now_ns() - t0, Ordering::Relaxed);
        self.t.send(&frame)?;
        let reply = self.t.recv()?;
        let t1 = self.t.probe.now_ns();
        let resp = decode_response(&reply)?;
        self.t.stats.dec_ns.fetch_add(self.t.probe.now_ns() - t1, Ordering::Relaxed);
        Ok(resp)
    }
}
