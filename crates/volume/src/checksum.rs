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
//! `TVIS`/`TIMP` tables and `VFDR` dumps.
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
//! ## Two kernels, one answer
//!
//! A pass runs one of two kernels, and both return the value of a
//! bit-at-a-time loop for every input (the tests keep one as their
//! reference and pin each kernel to it separately):
//!
//! - **Folding** (x86_64 only): the carry-less-multiply method of Gopal
//!   et al., "Fast CRC Computation for Generic Polynomials Using
//!   PCLMULQDQ" (Intel, 2009), as Linux `crc32-pclmul` and crc32fast use
//!   it. Four 128-bit accumulators each fold 16 bytes per step with
//!   `PCLMULQDQ`, so 64 bytes enter per step; the four are folded into
//!   one, single 16-byte blocks follow, and a Barrett reduction takes the
//!   128-bit remainder to the 32-bit register.
//! - **Portable** (every target): slicing-by-16 — sixteen 256-entry tables
//!   built at compile time, sixteen input bytes folded per step, the
//!   classic byte-at-a-time loop for the last `len % 16` bytes. Bytes are
//!   assembled with `from_le_bytes` and `f32`s enter as `to_bits()`.
//!
//! The rule: a pass of at least 64 bytes (what the four accumulators start
//! from; at that length the folding kernel already takes 5 ns to the table
//! loop's 19) goes to the folding kernel when `is_x86_feature_detected!`
//! reports both `pclmulqdq` and `sse4.1`; everything else — other targets,
//! older CPUs, shorter inputs (headers, requests), and the fewer than 16
//! bytes left after the last fold — runs the portable loop. There is no
//! switch: the CPU decides.
//!
//! The folding kernel and [`crate::le`]'s two byte views are the only
//! `unsafe` code in the crate. The kernel is sound for three reasons. It is
//! entered from one call site, just after detection has confirmed both
//! features its `#[target_feature]` enables. Every 16-byte load is an
//! unaligned load from a slice checked to hold 16 bytes. [`crc32_f32s`]
//! hands it [`crate::le::f32_bytes`] of the `f32` slice, which is exactly
//! the little-endian bytes [`crate::le::put_f32s`] writes: an `f32` has no
//! padding and x86_64 is little-endian.
//!
//! Measured on a two-core Intel Xeon with bare `rustc -C opt-level=3` (no
//! `target-cpu`), one pass over 5.5 MB (one `FetchReply`) takes
//! 0.26–0.30 ms folding (≈ 19 GB/s) against 2.9–3.7 ms for slicing-by-16
//! (slicing-by-8 took 4.2 ms, byte-at-a-time 16.7 ms); one 17,408-byte
//! brick 0.76–0.86 µs against 9.1–10.0 µs, as bytes or as `f32`s. Joining
//! 300 block CRCs takes 10 µs (32 ns a block with the shift operator in
//! hand, 103 ns computing it each time).

const POLY: u32 = 0xEDB8_8320;

/// The shortest pass the folding kernel takes: the 64 bytes its four
/// accumulators start from. It is also the crossover: at 64 bytes the
/// kernel already takes 5 ns to the table loop's 19 (the module docs'
/// machine), so no shorter input is worth a second threshold.
const FOLD_MIN_BYTES: usize = 64;

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

/// The portable kernel: the raw register `c` advanced over `data`.
fn portable(c: u32, data: &[u8]) -> u32 {
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let mut c = c;
    let mut chunks = data.chunks_exact(16);
    for w in &mut chunks {
        c = step16(c, [word(&w[0..4]), word(&w[4..8]), word(&w[8..12]), word(&w[12..16])]);
    }
    step_bytes(c, chunks.remainder())
}

/// The portable kernel over the little-endian bytes of `data`: each
/// value's `to_bits()` *is* its little-endian word, on any target.
fn portable_f32s(c: u32, data: &[f32]) -> u32 {
    let mut c = c;
    let mut chunks = data.chunks_exact(4);
    for w in &mut chunks {
        c = step16(c, [w[0].to_bits(), w[1].to_bits(), w[2].to_bits(), w[3].to_bits()]);
    }
    for v in chunks.remainder() {
        c = step_bytes(c, &v.to_le_bytes());
    }
    c
}

/// The dispatcher: the raw register `c` advanced over `data` by whichever
/// kernel the module-level rule picks.
#[inline]
fn update(c: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= FOLD_MIN_BYTES {
        if let Some(c) = fold::try_update(c, data) {
            return c;
        }
    }
    portable(c, data)
}

/// CRC-32 of `data` (IEEE, as used by zlib/PNG/Ethernet).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_append(0, data)
}

/// Continue a finished CRC: `crc32_append(crc32(a), b) == crc32(a ‖ b)`
/// (zlib's `crc32(crc, buf, len)`).
pub fn crc32_append(crc: u32, data: &[u8]) -> u32 {
    !update(!crc, data)
}

/// CRC-32 of the little-endian bytes of `data` — what
/// [`crate::le::put_f32s`] appends — without materialising them.
pub fn crc32_f32s(data: &[f32]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::mem::size_of_val(data) >= FOLD_MIN_BYTES {
        return crc32(crate::le::f32_bytes(data));
    }
    !portable_f32s(!0, data)
}

/// The folding kernel: CRC-32 by carry-less multiplication, 64 bytes a
/// step (module docs). Everything `unsafe` in the crate but the byte views
/// of [`crate::le`] is here.
#[cfg(target_arch = "x86_64")]
mod fold {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // Fold and reduction constants. `P` is the generator polynomial and
    // `[r]'` is the 32-bit remainder `r` bit-reflected (bit 31 holds `x^0`,
    // the CRC register's order), shifted left one bit so that a reflected
    // 64 × 64 carry-less product comes out aligned. The test
    // `fold_constants_are_the_named_residues` derives each from `POLY`.

    // The first step loads 64 bytes.
    const _: () = assert!(super::FOLD_MIN_BYTES >= 64);

    /// `[x^(4·128+32) mod P]' << 1`: folds the low half of an accumulator
    /// across four 16-byte blocks.
    pub(super) const K1: i64 = 0x1_5444_2BD4;
    /// `[x^(4·128−32) mod P]' << 1`: folds the high half across four blocks.
    pub(super) const K2: i64 = 0x1_C6E4_1596;
    /// `[x^(128+32) mod P]' << 1`: folds the low half across one block.
    pub(super) const K3: i64 = 0x1_7519_97D0;
    /// `[x^(128−32) mod P]' << 1`: folds the high half across one block,
    /// and the low 64 bits down to 96 in the 128 → 64 step.
    pub(super) const K4: i64 = 0x0_CCAA_009E;
    /// `[x^64 mod P]' << 1`: the 96 → 64 step.
    pub(super) const K5: i64 = 0x1_63CD_6124;
    /// `P` itself, all 33 coefficients bit-reflected: the Barrett step's
    /// divisor.
    pub(super) const P_33: i64 = 0x1_DB71_0641;
    /// Barrett's μ = `⌊x^64 / P⌋`, 33 coefficients bit-reflected.
    pub(super) const MU_33: i64 = 0x1_F701_1641;

    #[cfg(test)]
    thread_local! {
        /// Passes [`update`] has made on this thread past the short-input
        /// fallback: the hook a test uses to see that `crc32` reaches it.
        pub(super) static PASSES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    /// Does this CPU have both features [`update`] enables?
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
    }

    /// [`update`]'s result, if this CPU can run it; `None` if it cannot.
    #[inline]
    pub(super) fn try_update(c: u32, data: &[u8]) -> Option<u32> {
        // SAFETY: `detected` has just reported both features `update`
        // enables, so this CPU can run it.
        detected().then(|| unsafe { update(c, data) })
    }

    /// The first 16 bytes of `b`, in order, as one register.
    #[inline(always)]
    fn load(b: &[u8]) -> __m128i {
        assert!(b.len() >= 16);
        // SAFETY: the assert has just checked that `b` holds at least 16
        // readable bytes from its start; the unaligned load needs no
        // alignment, and SSE2 is part of every x86_64 CPU.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// `acc` carried past one fold distance and added to `next`:
    /// `acc.lo · k.lo ⊕ acc.hi · k.hi ⊕ next`.
    ///
    /// # Safety
    ///
    /// The CPU supports `pclmulqdq`.
    #[inline(always)]
    unsafe fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(acc, k, 0x00);
        let hi = _mm_clmulepi64_si128(acc, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// The raw register `c` advanced over `data`: the same value as
    /// [`super::portable`] for every input.
    ///
    /// # Safety
    ///
    /// The CPU supports `pclmulqdq` and `sse4.1`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn update(c: u32, data: &[u8]) -> u32 {
        if data.len() < super::FOLD_MIN_BYTES {
            return super::portable(c, data);
        }
        #[cfg(test)]
        PASSES.with(|p| p.set(p.get() + 1));

        // Four accumulators over the first 64 bytes, the register entering
        // with the first four.
        let (head, rest) = data.split_at(64);
        let mut x = [load(head), load(&head[16..]), load(&head[32..]), load(&head[48..])];
        x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(c as i32));

        // Fold by four: each accumulator jumps the 64 bytes after it.
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(64);
        for q in &mut quads {
            x[0] = fold(x[0], load(q), k1k2);
            x[1] = fold(x[1], load(&q[16..]), k1k2);
            x[2] = fold(x[2], load(&q[32..]), k1k2);
            x[3] = fold(x[3], load(&q[48..]), k1k2);
        }

        // Four into one, then fold by one over the remaining 16-byte blocks.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut acc = fold(x[0], x[1], k3k4);
        acc = fold(acc, x[2], k3k4);
        acc = fold(acc, x[3], k3k4);
        let mut singles = quads.remainder().chunks_exact(16);
        for s in &mut singles {
            acc = fold(acc, load(s), k3k4);
        }

        // 128 → 96 → 64 bits: carry the low half, then the low 32 bits,
        // past the bits above them.
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let r = _mm_xor_si128(_mm_clmulepi64_si128(acc, k3k4, 0x10), _mm_srli_si128(acc, 8));
        let r = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(r, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(r, 4),
        );

        // Barrett, reflected: T1 = (R mod x^32)·μ, T2 = (T1 mod x^32)·P, and
        // the remainder is the upper 32 bits of R ⊕ T2.
        let pmu = _mm_set_epi64x(MU_33, P_33);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(r, low32), pmu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pmu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(r, t2), 1) as u32;

        super::step_bytes(c, singles.remainder())
    }
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
    use viz_geom::rng::{for_cases, SplitMix64};

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

    /// A kernel as a finished-CRC append.
    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every kernel this CPU can run, by name: the portable loop always,
    /// the folding kernel when detected.
    fn kernels() -> Vec<(&'static str, Kernel)> {
        let mut k: Vec<(&'static str, Kernel)> =
            vec![("portable", |crc, data| !portable(!crc, data))];
        #[cfg(target_arch = "x86_64")]
        if fold::detected() {
            k.push(("folding", |crc, data| !fold::try_update(!crc, data).expect("detected")));
        }
        k
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

    /// Every length 0..=1024 at every start offset 0..16 reaches, in each
    /// kernel, every stage and every tail: below the 64-byte threshold, one
    /// and many fold-4 steps, 0–3 fold-1 steps, every tail length 0..16.
    #[test]
    fn each_kernel_equals_the_reference_at_every_offset_and_length_to_1024() {
        let mut rng = SplitMix64::new(0xF01D_2026);
        let buf: Vec<u8> = (0..16 + 1024).map(|_| rng.next_u64() as u8).collect();
        for (name, kernel) in kernels() {
            for start in 0..16 {
                for len in 0..=1024 {
                    let s = &buf[start..start + len];
                    assert_eq!(
                        kernel(0, s),
                        crc32_bytewise(s),
                        "{name}: len {len}, offset {start}"
                    );
                }
            }
        }
    }

    #[test]
    fn each_kernel_equals_the_reference_on_random_lengths_to_70000() {
        let mut rng = SplitMix64::new(0x7000_0C3C);
        let buf: Vec<u8> = (0..16 + 70_000).map(|_| rng.next_u64() as u8).collect();
        let kernels = kernels();
        for_cases(0x5EED_C1C0, 256, |rng, case| {
            let len = if case == 0 { 70_000 } else { rng.index(0..70_001) };
            let start = rng.index(0..16);
            let s = &buf[start..start + len];
            let want = crc32_bytewise(s);
            for (name, kernel) in &kernels {
                assert_eq!(kernel(0, s), want, "{name}: len {len}, offset {start}");
            }
        });
    }

    /// A wrong constant breaks the folding kernel only for inputs that
    /// reach its stage; this names what each one is and derives it.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fold_constants_are_the_named_residues() {
        // x^n mod P in the register's reflected order, from x^1 by
        // repeated multiplication.
        let x_pow = |n: u32| (0..n).fold(1u32 << 31, |p, _| multmodp(1 << 30, p));
        let k = |n: u32| i64::from(x_pow(n)) << 1;
        assert_eq!(fold::K1, k(4 * 128 + 32), "K1");
        assert_eq!(fold::K2, k(4 * 128 - 32), "K2");
        assert_eq!(fold::K3, k(128 + 32), "K3");
        assert_eq!(fold::K4, k(128 - 32), "K4");
        assert_eq!(fold::K5, k(64), "K5");
        // P with its x^32 term, 33 bits reflected: POLY shifted up past x^0.
        assert_eq!(fold::P_33, (i64::from(POLY) << 1) | 1, "P");
        // μ = ⌊x^64 / P⌋ by long division in normal bit order, then
        // reflected over its 33 bits.
        let p_normal = u128::from(POLY.reverse_bits()) | 1 << 32;
        let (mut rem, mut quot) = (1u128 << 64, 0u128);
        for bit in (0..=32).rev() {
            if rem & (1 << (bit + 32)) != 0 {
                rem ^= p_normal << bit;
                quot |= 1 << bit;
            }
        }
        assert_eq!(fold::MU_33, ((quot as u64).reverse_bits() >> 31) as i64, "μ");
    }

    #[test]
    fn crc32_runs_the_folding_kernel_wherever_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        if fold::detected() {
            let passes = || fold::PASSES.with(|p| p.get());
            let bytes = vec![0x5Au8; 4096];
            let before = passes();
            crc32(&bytes);
            assert_eq!(passes(), before + 1, "crc32 over 4 KB bypassed the folding kernel");
            crc32_f32s(&vec![1.5f32; 1024]);
            assert_eq!(passes(), before + 2, "crc32_f32s over 4 KB bypassed the folding kernel");
            crc32(&bytes[..FOLD_MIN_BYTES - 1]);
            assert_eq!(passes(), before + 2, "a pass under the threshold reached the kernel");
        }
    }

    #[test]
    fn append_and_combine_equal_one_pass_over_the_concatenation() {
        let kernels = kernels();
        for_cases(0xC0B1_2024, 256, |rng, case| {
            let len = if case == 0 { 0 } else { rng.index(0..2049) };
            let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let whole = crc32_bytewise(&buf);
            for split in [0, 1, 7, 8, 15, 16, 17, len.saturating_sub(1), len] {
                let (a, b) = buf.split_at(split.min(len));
                let (ca, cb) = (crc32_bytewise(a), crc32_bytewise(b));
                assert_eq!(crc32_append(ca, b), whole, "append: len {len}, split {split}");
                for (name, kernel) in &kernels {
                    assert_eq!(kernel(ca, b), whole, "{name} append: len {len}, split {split}");
                }
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
        // The same patterns cycled out to lengths that reach every stage of
        // the folding kernel, through each way an `f32` slice enters a
        // kernel: the portable `to_bits` loop, the dispatcher, and on x86_64
        // the byte view handed to each byte kernel.
        let v: Vec<f32> =
            (0..1100).map(|i| f32::from_bits(bits[i % bits.len()] ^ i as u32)).collect();
        for len in (0..=64).chain([100, 255, 256, 257, 1024, 1100]) {
            let v = &v[..len];
            let want = crc32_bytewise(&le_bytes(v));
            assert_eq!(!portable_f32s(!0, v), want, "portable to_bits: len {len}");
            assert_eq!(crc32_f32s(v), want, "dispatcher: len {len}");
            #[cfg(target_arch = "x86_64")]
            for (name, kernel) in kernels() {
                assert_eq!(
                    kernel(0, crate::le::f32_bytes(v)),
                    want,
                    "{name}, byte view: len {len}"
                );
            }
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
