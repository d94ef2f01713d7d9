//! CRC-32 (IEEE 802.3 polynomial, reflected), slicing-by-8. Hand-rolled
//! to keep the dependency set first-party.
//!
//! Shared by every integrity check in the system: WAL record frames on
//! disk and protocol frames on the wire. A length-prefixed format without
//! a body checksum can *resynchronize on garbage* — a duplicated or torn
//! byte stream occasionally parses as a valid frame with shifted field
//! boundaries, turning a transport fault into silent data corruption. The
//! checksum turns that into a detectable framing error instead.
//!
//! # Algorithm
//!
//! Slicing-by-8 (Kounavis & Berry, 2005): `TABLES[0]` is the classic
//! byte-at-a-time table, and `TABLES[k][b]` is the CRC of byte `b`
//! followed by `k` zero bytes, so eight input bytes fold into the running
//! CRC with eight independent lookups and no dependency between them — one
//! step per 8-byte chunk instead of one per byte. The up-to-seven bytes
//! left over go through `TABLES[0]` one at a time. The output is
//! bit-identical to the bytewise loop (the tests sweep every length and
//! alignment against it), so neither the wire format nor the WAL record
//! format knows the kernel changed. The eight 256-entry tables cost 8 KiB
//! of read-only data and are built at compile time.

const POLY: u32 = 0xEDB8_8320;

const fn tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // One more trailing zero byte per table.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = tables();

/// CRC-32 of `bytes` (IEEE polynomial `0xEDB88320`, reflected,
/// initial/final XOR `!0` — the same variant as zip/zlib/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][chunk[4] as usize]
            ^ TABLES[2][chunk[5] as usize]
            ^ TABLES[1][chunk[6] as usize]
            ^ TABLES[0][chunk[7] as usize];
    }
    for b in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ *b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-at-a-time loop `crc32` was before slicing: the definition
    /// the kernel must equal.
    fn reference(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ *b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Deterministic filler (xorshift64*), so a failure names a
    /// reproducible offset and length.
    fn pseudo_random(len: usize, mut state: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            out.extend_from_slice(&state.wrapping_mul(0x2545_F491_4F6C_DD1D).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    #[test]
    fn known_vectors() {
        // Standard check value for the IEEE variant.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Sensitive to any single flipped byte.
        assert_ne!(crc32(b"123456789"), crc32(b"123456788"));
        // The reference is itself pinned, not only compared with the kernel.
        assert_eq!(reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn kernel_equals_reference_at_every_length_and_alignment() {
        let buf = pseudo_random(1024 + 8, 0x9E37_79B9_7F4A_7C15);
        for offset in 0..8 {
            for len in 0..=1024 {
                let slice = &buf[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    reference(slice),
                    "offset {offset}, length {len}"
                );
            }
        }
    }

    #[test]
    fn kernel_equals_reference_on_large_inputs() {
        for (len, seed) in [(1 << 20, 1u64), ((3 << 20) + 5, 2), ((2 << 20) - 3, 3)] {
            let buf = pseudo_random(len, seed);
            assert_eq!(crc32(&buf), reference(&buf), "length {len}");
            assert_eq!(crc32(&buf[1..]), reference(&buf[1..]), "length {len} - 1");
        }
    }

    /// The CI kernel guard: the same sweep over 64 MiB, cut into pieces of
    /// every small length and start alignment. Too slow for a debug build,
    /// so it runs only under `--release` (see `.github/workflows/ci.yml`).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "64 MiB sweep: run with --release")]
    fn kernel_equals_reference_over_64_mib() {
        let buf = pseudo_random(64 << 20, 0xC0FF_EE00_DEAD_BEEF);
        assert_eq!(crc32(&buf), reference(&buf));
        // Pieces of lengths cycling 0..=4099 laid end to end, so every
        // (start alignment, tail length) pair occurs many times.
        let mut pos = 0;
        let mut len = 0;
        while pos + len <= buf.len() {
            let piece = &buf[pos..pos + len];
            assert_eq!(crc32(piece), reference(piece), "offset {pos}, length {len}");
            pos += len;
            len = (len + 1) % 4100;
        }
    }
}
