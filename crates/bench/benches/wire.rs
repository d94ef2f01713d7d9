//! B5: the wire path's two CPU costs, measured in isolation.
//!
//! * `B5_crc32`: [`tsb_common::checksum::crc32`] (slicing-by-8) against the
//!   byte-at-a-time loop it replaced, at the sizes the system checksums —
//!   a point-request frame (64 B), a 32-row range reply's neighbourhood
//!   (512 B .. 4 KiB, also a WAL page image). Reported as bytes/s.
//! * `B5_reply_round_trip`: one reply through every codec step it meets
//!   between the server's dispatch and the client's caller —
//!   `encode_reply`, `FrameDecoder::feed` + `next_frame` (the CRC check),
//!   `parse_reply` — for a point read's `Value` and a 32-row `Rows`.
//!
//! The serve-hot macrobenchmark (`benchmark/run.sh --workload serve-hot`)
//! is where these show end to end; this bench is the number to look at
//! before blaming or crediting the codec.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use tsb_client::protocol::{encode_reply, parse_reply, FrameDecoder, Reply};
use tsb_common::checksum::crc32;
use tsb_common::Key;

/// The byte-at-a-time table loop: what `crc32` was, and what its tests
/// still hold it equal to.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    }
    static TABLE: [u32; 256] = table();
    let mut crc = !0u32;
    for b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ *b as u32) & 0xFF) as usize];
    }
    !crc
}

fn filler(len: usize) -> Vec<u8> {
    (0..len as u64)
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
        .collect()
}

fn bench_crc32(c: &mut Criterion) {
    let mut group = c.benchmark_group("B5_crc32");
    for len in [64usize, 512, 4096] {
        let buf = filler(len);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(format!("slicing_by_8_{len}B"), |b| {
            b.iter(|| black_box(crc32(black_box(&buf))))
        });
        group.bench_function(format!("bytewise_{len}B"), |b| {
            b.iter(|| black_box(crc32_bytewise(black_box(&buf))))
        });
    }
    group.finish();
}

fn bench_reply_round_trip(c: &mut Criterion) {
    let mut group = c.benchmark_group("B5_reply_round_trip");
    let replies = [
        (
            "value_100B",
            Reply::Value {
                value: Some(filler(100)),
            },
        ),
        (
            "rows_32x100B",
            Reply::Rows {
                rows: (0..32u64)
                    .map(|i| (Key::from_u64(i), filler(100)))
                    .collect(),
            },
        ),
    ];
    for (name, reply) in &replies {
        let mut decoder = FrameDecoder::new();
        group.bench_function(*name, |b| {
            b.iter(|| {
                let frame = encode_reply(7, black_box(reply));
                decoder.feed(&frame);
                let body = decoder
                    .next_frame()
                    .expect("well-formed frame")
                    .expect("complete frame");
                black_box(parse_reply(&body).expect("well-formed reply"))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_crc32, bench_reply_round_trip);
criterion_main!(benches);
