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
//! (verified by the receiver on every frame), and the bodies of the
//! `TVIS`/`TIMP`/`THBT`/`VJRN` tables, the shard map and `VFDR` dumps.
//! All of them call the one [`crc32`] below.
//!
//! A `VSRV` *sender* does not make that pass over a block it has served
//! before. The pool keeps each payload's CRC beside it ([`crc32_f32s`],
//! taken once at insert), and the wire encoder joins those per-block
//! values into the frame's CRC with [`crc32_combine_op`]: since a CRC is a
//! remainder modulo the generator polynomial `P`,
//! `crc(A ‖ B) = crc(A) · x^(8·|B|) mod P  ⊕  crc(B)`, one 32-step
//! GF(2) multiplication per block instead of a pass over its bytes — the
//! form zlib ≥ 1.2.12 uses for `crc32_combine` (`multmodp` and a
//! 32-entry table of `x^(2^n) mod P`; `crc32_combine_gen` /
//! `crc32_combine_op` there are [`crc32_shift_op`] /
//! [`crc32_combine_op`] here). [`crc32_append`] continues a finished CRC
//! over further bytes (zlib's `crc32(crc, buf, len)`) for the few header
//! and key bytes between payloads. So a resident block served to a viewer
//! costs one pass end to end — the receiver's — and a cold one two more:
//! its `VBLK` frame's at decode and the pool's at insert.
//!
//! The implementation is slicing-by-16: sixteen 256-entry tables built at
//! compile time, sixteen input bytes folded per step, the classic
//! byte-at-a-time loop for the last `len % 16` bytes. It is portable safe
//! code (bytes are assembled with `from_le_bytes`, `f32`s enter as
//! `to_bits()`, no target fork) and returns the same value as a
//! bit-at-a-time loop for every input — the tests keep one as their
//! reference. On the two-core container the benchmark runs in, one pass
//! over 5.5 MB (one `FetchReply`) takes 3.0 ms — slicing-by-8 took 4.2 ms,
//! byte-at-a-time 16.7 ms — [`crc32_f32s`] over the same bytes as 300
//! blocks the same 3.0 ms, and joining those 300 block CRCs 10 µs (32 ns
//! a block with the shift operator in hand, 103 ns computing it each
//! time). The 16 KB of tables fit L1 beside the payload stream; in the
//! served pipeline the sixteen-wide loop beat the eight-wide one on ten of
//! ten alternating runs (`warm-shared` `frame_ms_p50` 5.9 → 4.9 ms).

const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the byte-at-a-time table; `TABLES[k][i]` is the CRC of
/// byte `i` followed by `k` zero bytes.
static TABLES: [[u32; 256]; 16] = tables();

const fn tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
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
    while k < 16 {
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

/// Fold sixteen input bytes, given as four little-endian words, into the
/// raw (un-complemented) register `c`.
#[inline(always)]
fn step16(c: u32, w: [u32; 4]) -> u32 {
    let t = &TABLES;
    let w0 = w[0] ^ c;
    let mut out = 0;
    // Word j's byte i has 15 - (4j + i) bytes after it in the group.
    for (j, w) in [w0, w[1], w[2], w[3]].into_iter().enumerate() {
        let top = 15 - 4 * j;
        out ^= t[top][(w & 0xFF) as usize]
            ^ t[top - 1][((w >> 8) & 0xFF) as usize]
            ^ t[top - 2][((w >> 16) & 0xFF) as usize]
            ^ t[top - 3][(w >> 24) as usize];
    }
    out
}

/// The byte-at-a-time loop, for the bytes the sixteen-wide step leaves over.
#[inline(always)]
fn step_bytes(mut c: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 of `data` (IEEE, as used by zlib/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_append(0, data)
}

/// Continue a finished CRC: `crc32_append(crc32(a), b) == crc32(a ‖ b)`
/// (zlib's `crc32(crc, buf, len)`).
pub fn crc32_append(crc: u32, data: &[u8]) -> u32 {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut c = !crc;
    let mut chunks = data.chunks_exact(16);
    for w in &mut chunks {
        c = step16(c, [word(&w[0..4]), word(&w[4..8]), word(&w[8..12]), word(&w[12..16])]);
    }
    !step_bytes(c, chunks.remainder())
}

/// CRC-32 of the little-endian bytes of `data` — what
/// [`crate::le::put_f32s`] appends — without materialising them: each
/// value's `to_bits()` *is* its little-endian word, on any target.
pub fn crc32_f32s(data: &[f32]) -> u32 {
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(4);
    for w in &mut chunks {
        c = step16(c, [w[0].to_bits(), w[1].to_bits(), w[2].to_bits(), w[3].to_bits()]);
    }
    for v in chunks.remainder() {
        c = step_bytes(c, &v.to_le_bytes());
    }
    !c
}

/// `a(x) · b(x) mod P` over GF(2), both operands and the result in the
/// reflected bit order the CRC register uses (bit 31 is `x^0`).
const fn multmodp(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
    }
}

/// `X2N[n]` is `x^(2^n) mod P`.
static X2N: [u32; 32] = x2n_table();

const fn x2n_table() -> [u32; 32] {
    let mut t = [0u32; 32];
    t[0] = 1 << 30; // x^1
    let mut n = 1;
    while n < 32 {
        t[n] = multmodp(t[n - 1], t[n - 1]);
        n += 1;
    }
    t
}

/// The operator that shifts a CRC past `len` further bytes:
/// `x^(8·len) mod P`. Costs one GF(2) multiplication per set bit of `len`, so
/// callers joining many blocks of one length compute it once and reuse it
/// with [`crc32_combine_op`] (zlib's `crc32_combine_gen`).
pub fn crc32_shift_op(mut len: u64) -> u32 {
    let mut p = 1u32 << 31; // x^0
    let mut k = 3; // bytes to bits
    while len != 0 {
        if len & 1 != 0 {
            // x has order 2^32 - 1, so x^(2^k) repeats with period 32 in k.
            p = multmodp(X2N[k & 31], p);
        }
        len >>= 1;
        k += 1;
    }
    p
}

/// `crc32(a ‖ b)` from `crc32(a)`, `crc32(b)` and
/// `op = crc32_shift_op(b.len())` (zlib's `crc32_combine_op`).
pub fn crc32_combine_op(crc_a: u32, crc_b: u32, op: u32) -> u32 {
    multmodp(op, crc_a) ^ crc_b
}

/// `crc32(a ‖ b)` from `crc32(a)`, `crc32(b)` and `b.len()`, touching
/// neither buffer (zlib ≥ 1.2.12's `crc32_combine`).
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    crc32_combine_op(crc_a, crc_b, crc32_shift_op(len_b))
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
    fn sixteen_wide_loop_equals_the_reference_at_every_offset_and_short_length() {
        let buf: Vec<u8> =
            (0..16 + 128u32).map(|i| (i.wrapping_mul(0x9E37_79B9) >> 23) as u8).collect();
        for start in 0..16 {
            for len in 0..=128 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len}, offset {start}");
            }
        }
    }

    #[test]
    fn append_and_combine_equal_one_pass_over_the_concatenation() {
        for_cases(0xC0B1_2024, 256, |rng, case| {
            let len = if case == 0 { 0 } else { rng.index(0..2049) };
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let whole = crc32_bytewise(&buf);
            for split in [0, 1, 7, 8, 15, 16, 17, len.saturating_sub(1), len] {
                let (a, b) = buf.split_at(split.min(len));
                let (ca, cb) = (crc32_bytewise(a), crc32_bytewise(b));
                assert_eq!(crc32_append(ca, b), whole, "append: len {len}, split {split}");
                assert_eq!(
                    crc32_combine(ca, cb, b.len() as u64),
                    whole,
                    "combine: len {len}, split {split}"
                );
            }
        });
    }

    #[test]
    fn combine_holds_for_block_sized_and_power_of_two_tails() {
        let a = b"a reply's small bytes";
        let ca = crc32_bytewise(a);
        let lens = (0..=16).map(|k| 1usize << k).chain([0, 17_408]);
        for len_b in lens {
            let b: Vec<u8> =
                (0..len_b as u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8).collect();
            let whole = crc32_bytewise(&[&a[..], &b[..]].concat());
            let op = crc32_shift_op(len_b as u64);
            assert_eq!(crc32_combine_op(ca, crc32_bytewise(&b), op), whole, "len_b {len_b}");
            assert_eq!(crc32_combine(ca, crc32_bytewise(&b), len_b as u64), whole);
        }
        // Past 2^32 bytes nothing can be checksummed here; the operator must
        // still compose (x^(8(m+n)) = x^(8m) · x^(8n)), which exercises the
        // wrap of the 32-entry power table.
        let half = crc32_shift_op(1 << 31);
        assert_eq!(
            crc32_shift_op((1 << 32) + 5),
            multmodp(multmodp(half, half), crc32_shift_op(5))
        );
        assert_eq!(crc32_shift_op(0), 1 << 31, "shifting by nothing multiplies by x^0");
    }

    #[test]
    fn f32_crc_is_the_crc_of_the_little_endian_bytes() {
        // -0.0, subnormals, ±inf, quiet and signalling NaN payloads, ordinary
        // values: the bits, not the values, are checksummed.
        let bits = [
            0x8000_0000u32,
            0x0000_0001,
            0x807F_FFFF,
            0x7F80_0000,
            0xFF80_0000,
            0x7FC0_0000,
            0x7FA0_0001,
            0xFFFF_FFFF,
            0x3F80_0000,
            0xC020_0000,
            0x7149_F2CA,
        ];
        let le_bytes = |v: &[f32]| -> Vec<u8> { v.iter().flat_map(|x| x.to_le_bytes()).collect() };
        for len in 0..=bits.len() {
            let v: Vec<f32> = bits[..len].iter().map(|&b| f32::from_bits(b)).collect();
            assert_eq!(crc32_f32s(&v), crc32_bytewise(&le_bytes(&v)), "len {len}");
        }
        for_cases(0xF32C_2024, 64, |rng, _| {
            let v: Vec<f32> =
                (0..rng.index(0..300)).map(|_| f32::from_bits(rng.next_u64() as u32)).collect();
            assert_eq!(crc32_f32s(&v), crc32_bytewise(&le_bytes(&v)));
        });
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
