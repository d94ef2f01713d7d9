//! [`TsbClient::send`] queues; the wire sees one write per burst.
//!
//! Each test plays the server with a bare `TcpListener`, so what reached
//! the socket — and when — is observed directly instead of inferred from
//! a real server's replies. Nothing here sleeps to "let bytes arrive":
//! reads either block until the expected bytes exist (bounded by a socket
//! timeout, so a regression fails instead of hanging) or are non-blocking
//! probes for bytes that must *not* exist. The one retry loop (the
//! dead-peer test) waits for an error the kernel may report a write late.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use tsb_client::protocol::{self, FrameDecoder, Reply, Request};
use tsb_client::{ClientOptions, TsbClient};
use tsb_common::{Key, Timestamp, TsbError};

/// The cap documented on [`TsbClient::send`].
const CAP: usize = 64 * 1024;

/// A connected (client, server-side socket) pair. Short timeouts on both
/// ends: a test that waits for bytes that never come fails in seconds.
fn pair() -> (TsbClient, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let opts = ClientOptions {
        read_timeout: Some(Duration::from_secs(5)),
        write_timeout: Some(Duration::from_secs(5)),
        ..ClientOptions::default()
    };
    let client =
        TsbClient::connect_with(listener.local_addr().expect("addr"), &opts).expect("connect");
    let (peer, _) = listener.accept().expect("accept");
    peer.set_read_timeout(Some(Duration::from_secs(5)))
        .expect("peer timeout");
    (client, peer)
}

fn put(i: u64) -> Request {
    Request::Put {
        key: Key::from_u64(i),
        value: format!("value-{i:04}").into_bytes(),
    }
}

/// Decodes `bytes` as back-to-back request frames.
fn requests_in(bytes: &[u8]) -> Vec<(u64, Request)> {
    let mut decoder = FrameDecoder::new();
    decoder.feed(bytes);
    let mut out = Vec::new();
    while let Some(body) = decoder.next_frame().expect("well-formed frame") {
        out.push(protocol::parse_request(&body).expect("well-formed request"));
    }
    assert_eq!(decoder.buffered(), 0, "trailing partial frame");
    out
}

#[test]
fn sends_stay_off_the_wire_until_flush_then_arrive_whole_and_in_order() {
    let (mut client, mut peer) = pair();
    let mut expected_len = 0;
    for i in 1..=32u64 {
        assert_eq!(client.send(&put(i)).expect("send"), i);
        expected_len += protocol::encode_request(i, &put(i)).len();
    }

    peer.set_nonblocking(true).expect("nonblocking");
    let mut probe = [0u8; 1];
    match peer.read(&mut probe) {
        Err(e) if e.kind() == ErrorKind::WouldBlock => {}
        other => panic!("32 sends below the cap wrote to the socket: {other:?}"),
    }
    peer.set_nonblocking(false).expect("blocking");

    client.flush().expect("flush");
    let mut wire = vec![0u8; expected_len];
    peer.read_exact(&mut wire).expect("all 32 frames");
    let got = requests_in(&wire);
    assert_eq!(got.len(), 32);
    for (i, (id, req)) in got.into_iter().enumerate() {
        assert_eq!(id, i as u64 + 1);
        assert_eq!(req, put(i as u64 + 1));
    }

    // Nothing left queued: a second flush writes nothing.
    client.flush().expect("empty flush");
    peer.set_nonblocking(true).expect("nonblocking");
    assert!(matches!(peer.read(&mut probe), Err(e) if e.kind() == ErrorKind::WouldBlock));
}

#[test]
fn a_receive_with_nothing_decoded_flushes_before_it_blocks() {
    let (mut client, mut peer) = pair();
    let ids: Vec<u64> = (0..3)
        .map(|_| client.send(&Request::Ping).expect("send"))
        .collect();
    let frame_len = protocol::encode_request(1, &Request::Ping).len();

    // The peer answers only once all three pings have arrived — which they
    // can only do if `recv_any` flushed them before blocking in `read`.
    let server = std::thread::spawn(move || {
        let mut wire = vec![0u8; 3 * frame_len];
        peer.read_exact(&mut wire).expect("three pings");
        let mut replies = Vec::new();
        for (id, req) in requests_in(&wire) {
            assert_eq!(req, Request::Ping);
            replies.extend_from_slice(&protocol::encode_reply(
                id,
                &Reply::Pong {
                    last_installed: Timestamp(id),
                },
            ));
        }
        peer.write_all(&replies).expect("reply");
        peer
    });

    for id in ids {
        assert_eq!(
            client.recv_any().expect("recv_any"),
            (
                id,
                Reply::Pong {
                    last_installed: Timestamp(id)
                }
            )
        );
    }
    server.join().expect("peer thread");
}

#[test]
fn dropping_the_client_delivers_what_was_queued() {
    let (mut client, mut peer) = pair();
    for i in 1..=5u64 {
        client.send(&put(i)).expect("send");
    }
    client.send(&Request::Shutdown).expect("send");
    drop(client);

    let mut wire = Vec::new();
    peer.read_to_end(&mut wire).expect("frames, then FIN");
    let got = requests_in(&wire);
    assert_eq!(got.len(), 6);
    assert_eq!(got[5], (6, Request::Shutdown));
}

#[test]
fn sending_without_receiving_never_holds_more_than_the_cap() {
    let (mut client, mut peer) = pair();
    let req = Request::Put {
        key: Key::from_u64(1),
        value: vec![0x5A; 1000],
    };
    let frame_len = protocol::encode_request(1, &req).len();
    let frames = 4 * CAP / frame_len;
    let total = frames * frame_len;

    // Whatever the client is not allowed to hold must show up here, with
    // no flush and no receive on the client's side.
    let reader = std::thread::spawn(move || {
        let mut wire = vec![0u8; total - CAP];
        peer.read_exact(&mut wire)
            .expect("all but at most one cap's worth of bytes");
        peer
    });
    for _ in 0..frames {
        client.send(&req).expect("send");
    }
    let mut peer = reader.join().expect("reader thread");

    // The rest is still queued (the cap is a bound, not a write-through):
    // it arrives with the flush and completes the last frame.
    client.flush().expect("flush");
    let mut rest = vec![0u8; CAP];
    peer.read_exact(&mut rest).expect("the queued tail");
    peer.set_nonblocking(true).expect("nonblocking");
    let mut probe = [0u8; 1];
    assert!(matches!(peer.read(&mut probe), Err(e) if e.kind() == ErrorKind::WouldBlock));
}

#[test]
fn a_dead_peer_surfaces_from_flush_and_receive_not_from_send() {
    // Receive path: the flush may still succeed into the kernel's buffer,
    // but the read that follows sees the close.
    let (mut client, peer) = pair();
    drop(peer);
    client
        .send(&Request::Ping)
        .expect("send does no I/O below the cap");
    match client.recv_any() {
        Err(TsbError::Io(_)) => {}
        other => panic!("expected an I/O error from recv_any, got {other:?}"),
    }

    // Flush path: the first write to a closed peer provokes its RST; a
    // later one fails. `send` itself keeps succeeding throughout.
    let (mut client, peer) = pair();
    drop(peer);
    let mut failure = None;
    for _ in 0..200 {
        client.send(&Request::Ping).expect("send does no I/O");
        if let Err(e) = client.flush() {
            failure = Some(e);
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    match failure {
        Some(TsbError::Io(_)) => {}
        other => panic!("expected an I/O error from flush, got {other:?}"),
    }
}
