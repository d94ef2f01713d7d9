//! Codec replay: the wire layer's cost measured from outside. The run's own
//! request/reply pairs are pushed through the public codec functions again,
//! each call timed, so the numbers are for exactly the frames the workload
//! produced.

use std::hint::black_box;
use std::time::Instant;

use tsb_client::protocol::{
    encode_reply, encode_request, parse_reply, parse_request, FrameDecoder, Reply, Request,
};
use tsb_common::checksum::crc32;

/// Times each sample is replayed (one call is too short for the clock).
const REPEATS: u32 = 20;

/// Mean nanoseconds per call of the four codec directions.
#[derive(Clone, Copy, Default, Debug)]
pub struct CodecCost {
    pub encode_request_ns: f64,
    /// `FrameDecoder::feed` + `next_frame` + `parse_request`: what the
    /// server does to a request's bytes.
    pub parse_request_ns: f64,
    pub encode_reply_ns: f64,
    /// `FrameDecoder::feed` + `next_frame` + `parse_reply`: the client side.
    pub parse_reply_ns: f64,
}

impl CodecCost {
    pub fn total_ns(&self) -> f64 {
        self.encode_request_ns + self.parse_request_ns + self.encode_reply_ns + self.parse_reply_ns
    }
}

fn mean_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..REPEATS {
        f();
    }
    start.elapsed().as_nanos() as f64 / (REPEATS as usize * calls) as f64
}

/// Replays `samples` (all of one verb). `None` when there are none.
pub fn replay(samples: &[(Request, Reply)]) -> Option<CodecCost> {
    if samples.is_empty() {
        return None;
    }
    let n = samples.len();
    let request_frames: Vec<Vec<u8>> = samples
        .iter()
        .map(|(req, _)| encode_request(1, req))
        .collect();
    let reply_frames: Vec<Vec<u8>> = samples
        .iter()
        .map(|(_, rep)| encode_reply(1, rep))
        .collect();
    let mut decoder = FrameDecoder::new();
    Some(CodecCost {
        encode_request_ns: mean_ns(n, || {
            for (i, (req, _)) in samples.iter().enumerate() {
                black_box(encode_request(black_box(i as u64), black_box(req)));
            }
        }),
        parse_request_ns: mean_ns(n, || {
            for frame in &request_frames {
                decoder.feed(black_box(frame));
                let body = decoder.next_frame().expect("own frame").expect("complete");
                black_box(parse_request(&body).expect("own request"));
            }
        }),
        encode_reply_ns: mean_ns(n, || {
            for (i, (_, rep)) in samples.iter().enumerate() {
                black_box(encode_reply(black_box(i as u64), black_box(rep)));
            }
        }),
        parse_reply_ns: mean_ns(n, || {
            for frame in &reply_frames {
                decoder.feed(black_box(frame));
                let body = decoder.next_frame().expect("own frame").expect("complete");
                black_box(parse_reply(&body).expect("own reply"));
            }
        }),
    })
}

/// Nanoseconds `crc32` takes per KiB of the samples' frame bodies.
pub fn crc32_ns_per_kib(samples: &[Vec<(Request, Reply)>]) -> f64 {
    let bodies: Vec<Vec<u8>> = samples
        .iter()
        .flatten()
        .flat_map(|(req, rep)| [encode_request(1, req), encode_reply(1, rep)])
        .map(|frame| frame[8..].to_vec())
        .collect();
    let bytes: usize = bodies.iter().map(Vec::len).sum();
    if bytes == 0 {
        return 0.0;
    }
    let per_pass = mean_ns(1, || {
        for body in &bodies {
            black_box(crc32(black_box(body)));
        }
    });
    per_pass / (bytes as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsb_common::{Key, Timestamp};

    #[test]
    fn replay_times_every_direction_of_its_own_frames() {
        let samples = vec![
            (
                Request::Put {
                    key: Key::from_u64(1),
                    value: vec![7; 100],
                },
                Reply::Committed { ts: Timestamp(9) },
            );
            4
        ];
        let cost = replay(&samples).unwrap();
        assert!(cost.encode_request_ns > 0.0 && cost.parse_request_ns > 0.0);
        assert!(cost.encode_reply_ns > 0.0 && cost.parse_reply_ns > 0.0);
        assert!(cost.total_ns() > cost.parse_request_ns);
        assert!(replay(&[]).is_none());
        assert!(crc32_ns_per_kib(&[samples]) > 0.0);
        assert_eq!(crc32_ns_per_kib(&[]), 0.0);
    }
}
