//! Property tests for the wire-protocol frame decoder.
//!
//! The decoder faces the network, i.e. arbitrary bytes. The properties:
//!
//! * **No panic, ever** — malformed, truncated, oversized, or garbage
//!   input must surface as `FrameError`, never as a panic (each property
//!   body exercises the full decode path; a panic fails the test run).
//! * **No over-allocation** — buffered memory is bounded by the bytes
//!   actually fed plus one frame copy, regardless of what a hostile
//!   length prefix claims.
//! * **Torn-frame completeness** — any valid request stream chopped at
//!   *every* byte boundary reassembles to exactly the original requests.

use proptest::prelude::*;

use tsb_client::protocol::{
    encode_request, parse_request, FrameDecoder, FrameError, Request, MAX_FRAME_BODY,
    MIN_FRAME_BODY,
};
use tsb_common::{Key, KeyBound, KeyRange, TimeRange, Timestamp, TxnId};

fn key() -> impl Strategy<Value = Key> {
    any::<u64>().prop_map(Key::from_u64)
}

fn small_bytes() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..48)
}

fn request_strategy() -> impl Strategy<Value = Request> {
    prop_oneof![
        (key(), small_bytes()).prop_map(|(key, value)| Request::Put { key, value }),
        key().prop_map(|key| Request::Delete { key }),
        key().prop_map(|key| Request::Get { key }),
        (key(), any::<u64>()).prop_map(|(key, ts)| Request::GetAsOf {
            key,
            as_of: Timestamp(ts),
        }),
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(lo, ts, current)| {
            Request::Range {
                range: KeyRange::new(Key::from_u64(lo), KeyBound::PlusInfinity),
                as_of: if current { None } else { Some(Timestamp(ts)) },
            }
        }),
        (key(), any::<u64>()).prop_map(|(key, lo)| Request::History {
            key,
            window: TimeRange::from(Timestamp(lo)),
        }),
        Just(Request::TxnBegin),
        (any::<u64>(), key(), prop::option::of(small_bytes())).prop_map(|(txn, key, value)| {
            Request::TxnWrite {
                txn: TxnId(txn),
                key,
                value,
            }
        }),
        any::<u64>().prop_map(|t| Request::TxnCommit { txn: TxnId(t) }),
        any::<u64>().prop_map(|t| Request::TxnAbort { txn: TxnId(t) }),
        Just(Request::Ping),
        Just(Request::Shutdown),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary garbage fed in arbitrary chunk sizes never panics and
    /// never buffers more than it was fed.
    #[test]
    fn garbage_never_panics_or_over_allocates(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
        chunk in 1usize..17,
    ) {
        let mut dec = FrameDecoder::new();
        let mut fed = 0usize;
        let mut dead = false;
        for piece in bytes.chunks(chunk) {
            if dead { break; }
            dec.feed(piece);
            fed += piece.len();
            loop {
                match dec.next_frame() {
                    Ok(Some(body)) => {
                        // A complete frame from garbage is possible (the
                        // prefix happened to be plausible); parsing it must
                        // still not panic.
                        let _ = parse_request(&body);
                    }
                    Ok(None) => break,
                    Err(e) => {
                        // Framing is gone: a real server closes here.
                        prop_assert!(matches!(e, FrameError::Oversized { .. }));
                        dead = true;
                        break;
                    }
                }
            }
            // Buffered bytes can never exceed what was actually fed.
            prop_assert!(dec.buffered() <= fed);
        }
    }

    /// A hostile length prefix is rejected before any allocation: the
    /// decoder's buffer holds only the bytes fed, not the declared size.
    #[test]
    fn declared_length_does_not_drive_allocation(declared in (MAX_FRAME_BODY as u64 + 1)..u32::MAX as u64) {
        let mut dec = FrameDecoder::new();
        dec.feed(&(declared as u32).to_le_bytes());
        prop_assert!(matches!(dec.next_frame(), Err(FrameError::Oversized { .. })));
        prop_assert!(dec.buffered() <= 4);
    }

    /// Undersized bodies (below id + tag) are equally fatal.
    #[test]
    fn undersized_bodies_are_rejected(declared in 0u32..(MIN_FRAME_BODY as u32)) {
        let mut dec = FrameDecoder::new();
        dec.feed(&declared.to_le_bytes());
        dec.feed(&vec![0u8; declared as usize]);
        prop_assert!(matches!(dec.next_frame(), Err(FrameError::Oversized { .. })));
    }

    /// Any pipelined request stream, torn at every byte boundary,
    /// reassembles to exactly the original sequence.
    #[test]
    fn torn_frames_reassemble_exactly(
        reqs in prop::collection::vec(request_strategy(), 1..8),
    ) {
        let mut wire = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            wire.extend_from_slice(&encode_request(i as u64, req));
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = Vec::new();
        for byte in &wire {
            dec.feed(std::slice::from_ref(byte));
            while let Some(body) = dec.next_frame().expect("valid stream") {
                decoded.push(parse_request(&body).expect("valid frame"));
            }
        }
        prop_assert_eq!(decoded.len(), reqs.len());
        for (i, ((id, got), want)) in decoded.into_iter().zip(reqs).enumerate() {
            prop_assert_eq!(id, i as u64);
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// A valid frame with its body corrupted (any single byte flipped
    /// after the id) parses to an error or to *some* request — never a
    /// panic — and truncated bodies always error.
    #[test]
    fn corrupted_bodies_error_or_parse_but_never_panic(
        req in request_strategy(),
        flip_at in any::<usize>(),
        flip_with in 1u8..=255,
        cut in any::<usize>(),
    ) {
        let frame = encode_request(7, &req);
        let body = &frame[4..];

        // Bit-flip somewhere in the body.
        let mut flipped = body.to_vec();
        let at = flip_at % flipped.len();
        flipped[at] ^= flip_with;
        let _ = parse_request(&flipped);

        // Truncation at any interior boundary always errors: field lengths
        // are self-describing and the parser demands exact exhaustion, so
        // a strict prefix can never parse as a complete request.
        let cut_at = cut % body.len();
        prop_assert!(parse_request(&body[..cut_at]).is_err());
    }
}
