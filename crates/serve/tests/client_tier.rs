//! The client tier: a `ServeClient` answers the demand keys its last reply
//! carried from that reply's payloads and asks the server only for the
//! rest, merging both back into one reply per demand slot.

use std::sync::Arc;
use std::time::Duration;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine, InstrumentedSource};
use viz_serve::proto::{decode_request, encode_response};
use viz_serve::{
    inproc_pair, BlockReply, ClientError, InProcServer, InProcTransport, Request, Response,
    ServeClient, ServeConfig, Server, Transport,
};
use viz_volume::{BlockId, BlockKey, MemBlockStore};

fn key(i: u32) -> BlockKey {
    BlockKey::scalar(BlockId(i))
}

fn payload(i: u32) -> Vec<f32> {
    vec![i as f32; 16]
}

/// A `workers = 0` server over a store holding blocks `0..n`, and one
/// client with an open session on it.
fn setup(n: u32) -> (Arc<Server>, InProcServer, ServeClient<InProcTransport>) {
    let store = MemBlockStore::new();
    for i in 0..n {
        store.insert(key(i), payload(i));
    }
    let src = Arc::new(InstrumentedSource::new(Arc::new(store), Duration::ZERO));
    let engine = FetchEngine::spawn(
        src,
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 0, ..FetchConfig::default() },
    );
    let server = Server::new(Arc::new(engine), ServeConfig::default());
    let mut inproc = InProcServer::new(server.clone());
    let mut client = ServeClient::new(inproc.connect());
    client.send_open("viewer").unwrap();
    inproc.tick();
    client.recv_open().unwrap();
    (server, inproc, client)
}

fn keys(ids: impl IntoIterator<Item = u32>) -> Vec<BlockKey> {
    ids.into_iter().map(key).collect()
}

/// One stepped round trip.
fn fetch(
    inproc: &mut InProcServer,
    c: &mut ServeClient<InProcTransport>,
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
