//! The client tier: a `ServeClient` answers the demand keys its tier holds
//! from their payloads and asks the server only for the rest, merging both
//! back into one reply per demand slot.
//!
//! Most tests build the tier at capacity 0, where it holds the last frame
//! only; the tests at the default capacity, and the differential test
//! against an LRU model that pins the frame, cover what it keeps beyond.

use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_geom::rng::{for_cases, SplitMix64};
use viz_serve::proto::{decode_request, encode_response};
use viz_serve::{
    inproc_pair, BlockReply, ClientError, ClientTier, InProcServer, InProcTransport, Request,
    Response, ServeClient, ServeConfig, Server, Transport,
};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn payload(i: u32) -> Vec<f32> {
    vec![i as f32; 16]
}

/// A `workers = 0` server over a store holding blocks `0..n`, and one
/// client with an open session on it whose tier holds the last frame only.
fn setup(n: u32) -> (Arc<Server>, InProcServer, ServeClient<InProcTransport>) {
    let (server, mut inproc) = serve(keys(0..n));
    let client = open(&mut inproc, |t| t, ClientTier::with_capacity(0));
    (server, inproc, client)
}

/// A `workers = 0` server over a store holding `stored`, each key's
/// payload that of its block id.
fn serve(stored: Vec<BlockKey>) -> (Arc<Server>, InProcServer) {
    let store = MemBlockStore::new();
    for k in stored {
        store.insert(k, payload(k.block.0));
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::ZERO));
    let engine = FetchEngine::spawn(
        src,
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 0, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    (server.clone(), InProcServer::new(server))
}

/// A client over a new connection, wrapped by `wrap`, holding merged
/// blocks in `tier`, with an open session.
fn open<T: Transport>(
    inproc: &mut InProcServer,
    wrap: impl FnOnce(InProcTransport) -> T,
    tier: ClientTier,
) -> ServeClient<T> {
    let mut client = ServeClient::new(wrap(inproc.connect())).with_tier(tier);
    client.send_open("viewer").unwrap();
    inproc.tick();
    client.recv_open().unwrap();
    client
}

fn keys(ids: impl IntoIterator<Item = u32>) -> Vec<BlockKey> {
    ids.into_iter().map(key).collect()
}

/// One stepped round trip.
fn fetch<T: Transport>(
    inproc: &mut InProcServer,
    c: &mut ServeClient<T>,
    demand: Vec<BlockKey>,
    prefetch: Vec<(BlockKey, f64)>,
) -> viz_serve::FetchOutcome {
    c.send_fetch(0, demand, prefetch).unwrap();
    inproc.tick();
    c.recv_fetch().unwrap()
}

fn assert_payloads(blocks: &[BlockReply], want: &[BlockKey]) {
    let got: Vec<BlockKey> = blocks.iter().map(|b| b.key).collect();
    assert_eq!(got, want, "one reply per demand slot, in request order");
    for b in blocks {
        assert_eq!(b.result.as_ref().unwrap().as_slice(), payload(b.key.block.0), "{:?}", b.key);
    }
}

#[test]
fn overlapping_windows_ask_only_for_the_absent_keys() {
    let (server, mut inproc, mut c) = setup(16);
    let first = fetch(&mut inproc, &mut c, keys(0..8), vec![]);
    assert_payloads(&first.blocks, &keys(0..8));
    assert_eq!(first.held, 0);
    assert_eq!(server.metrics().demand_served, 8);

    let second = fetch(&mut inproc, &mut c, keys(5..12), vec![]);
    assert_payloads(&second.blocks, &keys(5..12));
    assert_eq!(second.held, 3, "5, 6 and 7 were in the last reply");
    assert_eq!(server.metrics().demand_served, 8 + 4, "only 8..12 reached the server");
    assert_eq!(server.metrics().demand_admitted, 8 + 4);

    // The tier is the last frame, not every frame: 0..5 left it.
    let third = fetch(&mut inproc, &mut c, keys(0..5), vec![]);
    assert_payloads(&third.blocks, &keys(0..5));
    assert_eq!(third.held, 0);
    assert_eq!(server.metrics().demand_served, 8 + 4 + 5);
}

#[test]
fn held_payloads_are_the_last_replys_arcs() {
    let (_server, mut inproc, mut c) = setup(8);
    let first = fetch(&mut inproc, &mut c, keys([1, 2, 3]), vec![]);
    let second = fetch(&mut inproc, &mut c, keys([3, 4, 1]), vec![]);
    assert_eq!(second.held, 2);
    let arc = |blocks: &[BlockReply], i: usize| blocks[i].result.as_ref().unwrap().clone();
    assert!(Arc::ptr_eq(&arc(&second.blocks, 0), &arc(&first.blocks, 2)), "key 3: no copy");
    assert!(Arc::ptr_eq(&arc(&second.blocks, 2), &arc(&first.blocks, 0)), "key 1: no copy");
    assert_payloads(&second.blocks, &keys([3, 4, 1]));
}

#[test]
fn pipelined_fetches_merge_in_order() {
    let (server, mut inproc, mut c) = setup(16);
    fetch(&mut inproc, &mut c, keys(0..4), vec![]);
    // All three plans are made against the tier `0..4`, before any reply.
    let frames = [keys([0, 4, 1]), keys([5, 2, 6, 3]), keys([7, 0])];
    for demand in &frames {
        c.send_fetch(0, demand.clone(), vec![]).unwrap();
    }
    inproc.tick();
    let held: Vec<u32> = frames
        .iter()
        .map(|want| {
            let got = c.recv_fetch().unwrap();
            assert_payloads(&got.blocks, want);
            got.held
        })
        .collect();
    assert_eq!(held, [2, 2, 1]);
    assert_eq!(server.metrics().demand_served, 4 + 1 + 2 + 1);
}

#[test]
fn duplicate_demand_keys_fill_every_slot() {
    let (server, mut inproc, mut c) = setup(8);
    let first = fetch(&mut inproc, &mut c, keys([2, 2, 5]), vec![]);
    assert_payloads(&first.blocks, &keys([2, 2, 5]));
    assert_eq!(server.metrics().demand_served, 3, "both absent slots were asked");

    let second = fetch(&mut inproc, &mut c, keys([5, 2, 2, 6]), vec![]);
    assert_payloads(&second.blocks, &keys([5, 2, 2, 6]));
    assert_eq!(second.held, 3);
    assert_eq!(server.metrics().demand_served, 3 + 1);
}

#[test]
fn an_error_is_never_held() {
    let (server, mut inproc, mut c) = setup(4);
    // Key 9 is not in the store: its reply is an error.
    let first = fetch(&mut inproc, &mut c, keys([1, 9]), vec![]);
    assert!(first.blocks[0].result.is_ok());
    assert!(first.blocks[1].result.is_err());

    let second = fetch(&mut inproc, &mut c, keys([1, 9]), vec![]);
    assert_eq!(second.held, 1, "only key 1 is held");
    assert!(second.blocks[1].result.is_err());
    assert_eq!(server.metrics().demand_errors, 2, "key 9 was asked again");
}

#[test]
fn an_all_held_frame_still_sends_its_prefetch() {
    let (server, mut inproc, mut c) = setup(16);
    fetch(&mut inproc, &mut c, keys(0..4), vec![]);
    let before = server.metrics();

    let prefetch = vec![(key(10), 0.9), (key(11), 0.5)];
    let got = fetch(&mut inproc, &mut c, keys([3, 0, 2]), prefetch);
    assert_payloads(&got.blocks, &keys([3, 0, 2]));
    assert_eq!(got.held, 3);

    let after = server.metrics();
    assert_eq!(after.fetch_requests, before.fetch_requests + 1, "the Fetch was sent");
    assert_eq!(after.demand_admitted, before.demand_admitted, "with no demand on it");
    assert_eq!(after.prefetch_admitted, before.prefetch_admitted + 2, "its prefetch rode");
}

#[test]
fn an_all_held_frame_with_no_prefetch_sends_nothing() {
    let (server, mut inproc, mut c) = setup(16);
    fetch(&mut inproc, &mut c, keys(0..4), vec![]);
    let before = server.metrics();

    c.send_fetch(0, keys([3, 0, 2]), vec![]).unwrap();
    assert_eq!(inproc.tick(), 0, "no frame reached the server end");
    let got = c.recv_fetch().unwrap();
    assert_payloads(&got.blocks, &keys([3, 0, 2]));
    assert_eq!(got.held, 3);
    assert_eq!(server.metrics().fetch_requests, before.fetch_requests, "no Fetch was sent");

    // Split halves: a local plan, a sent one, a local one, all made
    // against the tier `3, 0, 2`. The second local plan's key 3 leaves
    // the tier when the first merges, and its slot still holds the
    // payload.
    let frames = [keys([0, 2]), keys([2, 5, 6]), keys([3])];
    for demand in &frames {
        c.send_fetch(0, demand.clone(), vec![]).unwrap();
    }
    inproc.tick();
    let held: Vec<u32> = frames
        .iter()
        .map(|want| {
            let got = c.recv_fetch().unwrap();
            assert_payloads(&got.blocks, want);
            got.held
        })
        .collect();
    assert_eq!(held, [2, 1, 1], "the outcomes come back in send order");
    let after = server.metrics();
    assert_eq!(after.fetch_requests, before.fetch_requests + 1, "only the middle frame was sent");
    assert_eq!(after.demand_served, before.demand_served + 2);
}

#[test]
fn a_frame_that_prefetches_only_held_keys_sends_nothing() {
    let (server, mut inproc, mut c) = setup(16);
    fetch(&mut inproc, &mut c, keys(0..4), vec![]);
    let before = server.metrics();

    c.send_fetch(0, keys([3, 0]), vec![(key(1), 0.9), (key(2), 0.5)]).unwrap();
    assert_eq!(inproc.tick(), 0, "no frame reached the server end");
    let got = c.recv_fetch().unwrap();
    assert_payloads(&got.blocks, &keys([3, 0]));
    assert_eq!(server.metrics().fetch_requests, before.fetch_requests, "no Fetch was sent");

    // A held key leaves the prefetch list; the rest still rides.
    let got = fetch(&mut inproc, &mut c, keys([3]), vec![(key(0), 0.9), (key(12), 0.5)]);
    assert_eq!(got.held, 1);
    let after = server.metrics();
    assert_eq!(after.fetch_requests, before.fetch_requests + 1);
    assert_eq!(after.prefetch_admitted, before.prefetch_admitted + 1, "only key 12 was asked");
}

#[test]
fn close_empties_the_tier() {
    let (server, mut inproc, mut c) = setup(8);
    fetch(&mut inproc, &mut c, keys(0..4), vec![]);
    c.send_close().unwrap();
    inproc.tick();
    c.recv_close().unwrap();

    c.send_open("again").unwrap();
    inproc.tick();
    c.recv_open().unwrap();
    let got = fetch(&mut inproc, &mut c, keys(0..4), vec![]);
    assert_eq!(got.held, 0);
    assert_eq!(server.metrics().demand_served, 4 + 4, "every key was asked again");
}

/// A server end played by hand, so a reply can answer other keys than
/// the ones asked.
#[test]
fn a_reply_that_misanswers_the_asked_keys_fails_closed() {
    let (client_end, mut server_end) = inproc_pair();
    let mut client = ServeClient::new(client_end);
    client.send_open("v").unwrap();
    server_end.recv().unwrap();
    server_end.send(&encode_response(&Response::OpenAck { session: 1 })).unwrap();
    client.recv_open().unwrap();

    let block = |i: u32| BlockReply { key: key(i), result: Ok(Arc::new(payload(i))), crc: None };
    let mut serve = |demand: Vec<BlockKey>, answer: Vec<BlockReply>| {
        client.send_fetch(0, demand, vec![]).unwrap();
        let Request::Fetch { demand: asked, .. } =
            decode_request(&server_end.recv().unwrap()).unwrap()
        else {
            panic!("wanted a Fetch");
        };
        let reply = Response::FetchReply { session: 1, blocks: answer, shed: 0, downgraded: 0 };
        server_end.send(&encode_response(&reply)).unwrap();
        (asked, client.recv_fetch())
    };

    let (asked, got) = serve(keys([0, 1, 2]), vec![block(0), block(1), block(2)]);
    assert_eq!(asked, keys([0, 1, 2]));
    assert_eq!(got.unwrap().held, 0);

    // Key 1 is held, so 3, 4 and 5 are asked. A reply that drops one of
    // them, or swaps two, has no safe merge.
    for answer in [vec![block(3), block(5)], vec![block(3), block(5), block(4)]] {
        let (asked, got) = serve(keys([3, 1, 4, 5]), answer);
        assert_eq!(asked, keys([3, 4, 5]));
        match got {
            Err(ClientError::Unexpected(_)) => {}
            other => panic!("wanted Unexpected and no blocks, got {other:?}"),
        }
    }

    // Neither bad reply touched the tier: 0, 1 and 2 are still held.
    let (asked, got) = serve(keys([2, 6, 0, 1]), vec![block(6)]);
    assert_eq!(asked, keys([6]));
    let got = got.unwrap();
    assert_eq!(got.held, 3);
    assert_payloads(&got.blocks, &keys([2, 6, 0, 1]));
}

// ---- the default capacity -------------------------------------------

#[test]
fn a_key_from_two_frames_back_is_held() {
    let (server, mut inproc) = serve(keys(0..8));
    let mut c = open(&mut inproc, |t| t, ClientTier::default());
    fetch(&mut inproc, &mut c, keys(0..4), vec![]);
    fetch(&mut inproc, &mut c, keys(4..8), vec![]);
    assert_eq!(server.metrics().demand_served, 8);

    let third = fetch(&mut inproc, &mut c, keys(0..4), vec![]);
    assert_payloads(&third.blocks, &keys(0..4));
    assert_eq!(third.held, 4, "0..4 stayed in the tier under 4..8");
    assert_eq!(server.metrics().demand_served, 8, "nothing reached the server");
    assert_eq!(c.tier().len(), 8);
}

#[test]
fn after_a_timestep_change_the_old_timestep_leaves_least_recently_used_first() {
    let cap = ClientTier::DEFAULT_CAPACITY as u32;
    let at = |t: u16, ids: std::ops::Range<u32>| -> Vec<BlockKey> {
        ids.map(|i| BlockKey::new(0, t, BlockId(i))).collect()
    };
    let quarter = cap / 4;
    let (server, mut inproc) = serve([at(0, 0..cap), at(1, 0..cap)].concat());
    let mut c = open(&mut inproc, |t| t, ClientTier::default());

    // Timestep 0 fills the tier in four frames, then its first eighth is
    // used again: least recently used first, the order is 1/8..1 of
    // timestep 0 and then 0..1/8.
    for q in 0..4 {
        fetch(&mut inproc, &mut c, at(0, q * quarter..(q + 1) * quarter), vec![]);
    }
    let again = fetch(&mut inproc, &mut c, at(0, 0..quarter / 2), vec![]);
    assert_eq!(again.held, quarter / 2);
    assert_eq!(c.tier().len(), cap as usize);

    // Timestep 1's first frame evicts the quarter of timestep 0 used
    // longest ago, not the quarter that arrived first.
    let first = fetch(&mut inproc, &mut c, at(1, 0..quarter), vec![]);
    assert_eq!(first.held, 0);
    assert_eq!(c.tier().len(), cap as usize);
    let held = |c: &ServeClient<InProcTransport>, keys: Vec<BlockKey>| {
        keys.into_iter().filter(|&k| c.tier().get(k).is_some()).count() as u32
    };
    assert_eq!(held(&c, at(0, quarter / 2..quarter + quarter / 2)), 0, "used longest ago: gone");
    assert_eq!(held(&c, at(0, quarter + quarter / 2..cap)), cap - quarter - quarter / 2);
    assert_eq!(held(&c, at(0, 0..quarter / 2)), quarter / 2, "used again: still held");

    // Each later frame of timestep 1 takes the next least recently used
    // keys of timestep 0, and the re-used eighth leaves last.
    for q in 1..4 {
        fetch(&mut inproc, &mut c, at(1, q * quarter..(q + 1) * quarter), vec![]);
        let gone = at(0, 0..cap).into_iter().filter(|&k| c.tier().get(k).is_none()).count();
        assert_eq!(gone as u32, (q + 1) * quarter, "timestep 1 frame {q}");
        let reused = if q < 3 { quarter / 2 } else { 0 };
        assert_eq!(held(&c, at(0, 0..quarter / 2)), reused, "timestep 1 frame {q}");
    }
    assert_eq!(held(&c, at(0, 0..cap)), 0);
    assert_eq!(held(&c, at(1, 0..cap)), cap);
    assert_eq!(server.metrics().demand_served, u64::from(2 * cap), "each key asked once");
}

// ---- differential test against an LRU model --------------------------

/// A transport that records the demand keys of every `Fetch` it sends.
struct Recording {
    inner: InProcTransport,
    asked: Arc<Mutex<Vec<BlockKey>>>,
}

impl Transport for Recording {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        if let Ok(Request::Fetch { demand, .. }) = decode_request(frame) {
            self.asked.lock().unwrap().extend(demand);
        }
        self.inner.send(frame)
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.inner.recv()
    }

    fn try_recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.inner.try_recv()
    }
}

/// The tier as a plain LRU list, least recently used first, that pins the
/// frame merged last.
struct LruModel {
    order: Vec<BlockKey>,
    capacity: usize,
}

impl LruModel {
    /// The demand slots a frame must ask for, in slot order.
    fn misses(&self, demand: &[BlockKey]) -> Vec<BlockKey> {
        demand.iter().copied().filter(|k| !self.order.contains(k)).collect()
    }

    /// Touch the frame's `Ok` keys in slot order, then evict keys outside
    /// the frame, least recently used first, down to the capacity.
    fn merge(&mut self, frame: &[BlockKey]) {
        for &k in frame {
            self.order.retain(|&o| o != k);
            self.order.push(k);
        }
        let mut excess = self.order.len().saturating_sub(self.capacity);
        self.order.retain(|k| {
            let evict = excess > 0 && !frame.contains(k);
            excess -= usize::from(evict);
            !evict
        });
    }
}

/// Seeded differential test of the tier against [`LruModel`]: random
/// frames over more keys than the capacity, some larger than it, with an
/// absent key now and then (an error, never held). On every frame the
/// client asks for exactly the model's misses, holds no more than
/// `max(capacity, frame)` payloads, holds the same number as the model,
/// and holds the whole frame it just returned. Debug builds run every
/// 16th case; release runs all.
#[test]
fn the_tier_matches_an_lru_model_that_pins_the_frame() {
    const FULL_CASES: usize = 8192;
    let stride = if cfg!(debug_assertions) { 16 } else { 1 };
    let (mut over_capacity, mut evicting) = (0usize, 0usize);
    for_cases(0x71e2, FULL_CASES / stride, |rng: &mut SplitMix64, _| {
        let capacity = rng.index(0..13);
        let stored = 3 * capacity as u32 + 4;
        let (_server, mut inproc) = serve(keys(0..stored));
        let asked = Arc::new(Mutex::new(Vec::new()));
        let record = |inner| Recording { inner, asked: asked.clone() };
        let mut c = open(&mut inproc, record, ClientTier::with_capacity(capacity));
        let mut m = LruModel { order: Vec::new(), capacity };
        for frame in 0..rng.index(1..40) {
            let len = rng.index(0..3 * capacity / 2 + 3);
            // Key `stored` is absent from the store: its reply is an error.
            let demand: Vec<BlockKey> =
                (0..len).map(|_| key(rng.below(u64::from(stored) + 1) as u32)).collect();
            let want = m.misses(&demand);
            let got = fetch(&mut inproc, &mut c, demand.clone(), vec![]);
            let sent = std::mem::take(&mut *asked.lock().unwrap());
            assert_eq!(sent, want, "frame {frame}: the client asks for the model's misses");

            let ok: Vec<BlockKey> =
                got.blocks.iter().filter(|b| b.result.is_ok()).map(|b| b.key).collect();
            let stored_slots = demand.iter().filter(|k| k.block.0 < stored).count();
            assert_eq!(ok.len(), stored_slots, "frame {frame}: every stored key arrives");
            m.merge(&ok);
            let mut distinct = ok.clone();
            distinct.sort_unstable_by_key(|k| k.block.0);
            distinct.dedup();
            let tier = c.tier();
            assert!(tier.len() <= capacity.max(distinct.len()), "frame {frame}: over its bound");
            assert_eq!(tier.len(), m.order.len(), "frame {frame}: held count");
            assert!(ok.iter().all(|&k| tier.get(k).is_some()), "frame {frame}: not fully held");
            over_capacity += usize::from(tier.len() > capacity);
            evicting += usize::from(tier.len() == capacity && !want.is_empty());
        }
    });
    assert!(over_capacity > 0, "no frame was larger than the capacity");
    assert!(evicting > 0, "no frame evicted");
}
