//! Wire-protocol corruption against a live server loop: every mangled
//! frame gets a typed `Error` reply (or at least *a* reply) and the
//! server never panics, mirroring the persist codecs' corruption
//! contract.

use std::sync::Arc;
use viz_fetch::{BlockPool, FetchConfig, FetchEngine};
use viz_serve::proto::{encode_request, ERR_PROTO, ERR_VERSION, MAGIC, PROTO_VERSION};
use viz_serve::{InProcServer, Request, Response, ServeClient, ServeConfig, Server};
use viz_volume::{crc32, BlockId, BlockKey, MemBlockStore};

fn serve() -> (InProcServer, ServeClient<viz_serve::InProcTransport>) {
    let store = MemBlockStore::new();
    for i in 0..8u32 {
        store.insert(BlockKey::scalar(BlockId(i)), vec![i as f32; 4]);
    }
    let engine = FetchEngine::spawn(
        Arc::new(store),
        Arc::new(BlockPool::new()),
        FetchConfig { workers: 0, ..FetchConfig::default() },
    );
    let mut inproc = InProcServer::new(Server::new(Arc::new(engine), ServeConfig::default()));
    let client = ServeClient::new(inproc.connect());
    (inproc, client)
}

fn expect_error(c: &mut ServeClient<viz_serve::InProcTransport>, want_code: u16) -> String {
    match c.recv_response().unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, want_code, "{message}");
            message
        }
        other => panic!("wanted an Error reply, got {other:?}"),
    }
}

#[test]
fn truncated_frame_gets_a_typed_error_reply() {
    let (mut s, mut c) = serve();
    let frame = encode_request(&Request::Open { name: "trunc".into() });
    c.send_raw(&frame[..frame.len() - 3]).unwrap();
    s.tick();
    let msg = expect_error(&mut c, ERR_PROTO);
    assert!(msg.contains("truncated"), "{msg}");

    // The connection survives and serves the intact retry.
    c.send_open("trunc").unwrap();
    s.tick();
    c.recv_open().unwrap();
}

#[test]
fn flipped_crc_byte_is_rejected() {
    let (mut s, mut c) = serve();
    let mut frame = encode_request(&Request::Stats);
    frame[5] ^= 0x40; // one bit of the stored CRC
    c.send_raw(&frame).unwrap();
    s.tick();
    let msg = expect_error(&mut c, ERR_PROTO);
    assert!(msg.contains("checksum"), "{msg}");
}

#[test]
fn flipped_body_byte_fails_the_checksum() {
    let (mut s, mut c) = serve();
    let mut frame = encode_request(&Request::Close { session: 1 });
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    c.send_raw(&frame).unwrap();
    s.tick();
    let msg = expect_error(&mut c, ERR_PROTO);
    assert!(msg.contains("checksum"), "{msg}");
}

#[test]
fn unknown_tag_is_rejected() {
    let (mut s, mut c) = serve();
    let mut body = Vec::new();
    body.extend_from_slice(&MAGIC);
    body.extend_from_slice(&PROTO_VERSION.to_le_bytes());
    body.push(0x7e); // no such message
    let mut frame = Vec::new();
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&body).to_le_bytes());
    frame.extend_from_slice(&body);
    c.send_raw(&frame).unwrap();
    s.tick();
    let msg = expect_error(&mut c, ERR_PROTO);
    assert!(msg.contains("tag"), "{msg}");
}

#[test]
fn version_skew_answers_err_version_and_keeps_the_connection() {
    // A client from before or after this build greets today's server; the
    // retired v1, v2 and v3 are skew like any other version.
    for version in [0, 1, 2, PROTO_VERSION - 1, PROTO_VERSION + 1] {
        let (mut s, mut c) = serve();
        let mut body = encode_request(&Request::Open { name: "skewed".into() })[8..].to_vec();
        body[4..6].copy_from_slice(&version.to_le_bytes());
        let mut skewed = Vec::new();
        skewed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        skewed.extend_from_slice(&crc32(&body).to_le_bytes());
        skewed.extend_from_slice(&body);
        c.send_raw(&skewed).unwrap();
        s.tick();
        let msg = expect_error(&mut c, ERR_VERSION);
        assert!(msg.contains("version"), "{msg}");

        // Switching to the supported version works on the same connection.
        c.send_open("downgraded").unwrap();
        s.tick();
        c.recv_open().unwrap();
    }
}

#[test]
fn byte_flip_sweep_never_panics_and_always_answers() {
    let (mut s, mut c) = serve();
    c.send_open("sweeper").unwrap();
    s.tick();
    let sid = c.recv_open().unwrap();

    let template = encode_request(&Request::Fetch {
        session: sid,
        generation: 0,
        demand: vec![BlockKey::scalar(BlockId(1))],
        prefetch: vec![(BlockKey::scalar(BlockId(2)), 0.5)],
        trace: viz_serve::TraceCtx::NONE,
    });
    for i in 0..template.len() {
        let mut frame = template.clone();
        frame[i] ^= 0xff;
        c.send_raw(&frame).unwrap();
        s.tick();
        // Whatever the flip produced — a decode error, an unknown-session
        // error, or even an accidentally-valid request — the server must
        // answer it, on a connection that stays up.
        let _ = c.recv_response().unwrap();
    }

    // Still fully functional after the storm.
    c.send_fetch(0, vec![BlockKey::scalar(BlockId(3))], vec![]).unwrap();
    s.tick();
    let got = c.recv_fetch().unwrap();
    assert_eq!(got.blocks[0].result.as_ref().unwrap()[0], 3.0);
}
