//! CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) for every framed
//! format in the workspace.
//!
//! The store's frames travel HDD → SSD → DRAM and sit on disk for the
//! lifetime of a dataset; silent bit-rot there would otherwise surface as
//! NaN voxels or skewed entropy tables far downstream. Framing every
//! payload with a CRC turns corruption into an `InvalidData` error at
//! decode time, where the fetch path's fail-fast classification handles
//! it.
//!
//! What is checksummed: the payload of a `VBLK` block frame (once at
//! write, once on every cold read), the whole body of a `VSRV` wire frame
//! (once by the sender, once by the receiver — so a resident block served
//! to a viewer costs exactly two passes end to end), and the bodies of the
//! `TVIS`/`TIMP`/`THBT`/`VJRN` tables, the shard map and `VFDR` dumps.
//! All of them call the one [`crc32`] below.
//!
//! The implementation is slicing-by-8: eight 256-entry tables built at
//! compile time, eight input bytes folded per step, the classic
//! byte-at-a-time loop for the last `len % 8` bytes. It is portable safe
//! code (bytes are assembled with `from_le_bytes`, no target fork) and
//! returns the same value as a byte-at-a-time loop for every input — the
//! tests keep one as their reference. On the two-core container the
//! benchmark runs in, one pass over 5.5 MB (one `FetchReply`) takes 4.2 ms
//! against 16.7 ms byte-at-a-time, where a `memcpy` of the same bytes
//! takes 0.5 ms; the 8 KB of tables leave L1 to the payload.

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 8] = tables();

const fn tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data` (IEEE, as used by zlib/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_geom::rng::for_cases;

    /// CRC-32 from its definition, one byte at a time and with no table to
    /// share a mistake with: the reference every input must agree with.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    #[test]
    fn known_vectors() {
        // The canonical check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn sliced_crc_equals_the_bytewise_reference() {
        // Every start offset 0..8 of one random buffer, so the 8-byte main
        // loop and the tail meet every alignment and every tail length.
        for_cases(0xC3C3_2017, 256, |rng, case| {
            let len = if case == 0 { 0 } else { rng.index(0..4097) };
            let buf: Vec<u8> = (0..len + 8).map(|_| rng.next_u64() as u8).collect();
            for start in 0..8 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len}, offset {start}");
            }
        });
        // Lengths around the slicing width, exhaustively.
        let buf: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8).collect();
        for len in 0..=buf.len() {
            assert_eq!(crc32(&buf[..len]), crc32_bytewise(&buf[..len]), "len {len}");
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..=255).collect();
        let good = crc32(&data);
        for i in [0usize, 17, 128, 255] {
            let mut bad = data.clone();
            bad[i] ^= 0x01;
            assert_ne!(crc32(&bad), good, "flip at byte {i} must change the crc");
        }
    }
}
