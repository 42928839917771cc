//! Little-endian field I/O for the framed binary codecs (`VBLK` here;
//! `TVIS` and `TIMP` in `viz-core`): append a field to a
//! `Vec<u8>`, split one off the front of a `&[u8]`. Voxel payloads — the
//! only fields that run to megabytes — go through the bulk pair
//! [`put_f32s`] / [`get_f32s`], shared by `VBLK` frames and the `VSRV`
//! wire. On a little-endian target the `VSRV` reply
//! segments and [`get_f32s`] go through a byte view of the `f32` slice
//! ([`f32_bytes`] / `f32_bytes_mut`), the crate's only `unsafe` besides
//! the CRC folding kernel; a big-endian target converts one value at a
//! time.

/// A fixed-width field with a little-endian byte form.
pub trait Le: Sized {
    /// Append `self` to `buf`.
    fn put(self, buf: &mut Vec<u8>);
    /// Split one value off the front of `buf`.
    fn get(buf: &mut &[u8]) -> Self;
}

macro_rules! le {
    ($($t:ty),*) => {$(
        impl Le for $t {
            fn put(self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(buf: &mut &[u8]) -> Self {
                let (head, rest) = buf.split_at(std::mem::size_of::<$t>());
                *buf = rest;
                <$t>::from_le_bytes(head.try_into().expect("split at the field width"))
            }
        }
    )*};
}
le!(u8, u16, u32, u64, f32, f64);

/// Append `v` to `buf`; the turbofish at the call site names the wire width.
pub fn put<T: Le>(buf: &mut Vec<u8>, v: T) {
    v.put(buf)
}

/// Split one `T` off the front of `buf`.
///
/// # Panics
/// When `buf` is shorter than the field: decoders check `buf.len()` first and
/// return their own typed error, as every caller here does.
pub fn get<T: Le>(buf: &mut &[u8]) -> T {
    T::get(buf)
}

/// The bytes of `data` in memory order, which on a little-endian target are
/// each value's `to_le_bytes()` in turn: the wire form of a payload, with
/// no copy. The CRC kernels and the `VSRV` reply segments read payloads
/// through it.
#[cfg(target_endian = "little")]
pub fn f32_bytes(data: &[f32]) -> &[u8] {
    // SAFETY: `data` is `size_of_val(data)` initialised bytes that stay
    // borrowed, unmodified, for the returned lifetime: an `f32` is four
    // bytes with no padding, and a `u8` is valid for any byte and needs no
    // alignment.
    unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u8>(), std::mem::size_of_val(data)) }
}

/// The mutable twin of [`f32_bytes`]: writing little-endian bytes through
/// it sets the values they encode.
#[cfg(target_endian = "little")]
pub(crate) fn f32_bytes_mut(data: &mut [f32]) -> &mut [u8] {
    // SAFETY: as in `f32_bytes`, and `data` is borrowed mutably for the
    // returned lifetime, so the view is the only access; any four bytes
    // written through it are a valid `f32` (every bit pattern is one), and
    // the view's alignment of 1 is never more than `f32`'s.
    unsafe {
        std::slice::from_raw_parts_mut(data.as_mut_ptr().cast::<u8>(), std::mem::size_of_val(data))
    }
}

/// Append every value of `data` to `buf`, little-endian: one `resize`, then
/// a fixed-width chunk loop the compiler turns into a plain copy on
/// little-endian targets.
pub fn put_f32s(buf: &mut Vec<u8>, data: &[f32]) {
    let at = buf.len();
    buf.resize(at + data.len() * 4, 0);
    for (dst, v) in buf[at..].chunks_exact_mut(4).zip(data) {
        dst.copy_from_slice(&v.to_le_bytes());
    }
}

/// The values `bytes` holds, four little-endian bytes each; a tail shorter
/// than one value is ignored, so callers check `bytes.len() % 4` (they all
/// check the exact length against a count) first. On a little-endian
/// target that is one zero-filled allocation and one `memcpy`.
pub fn get_f32s(bytes: &[u8]) -> Vec<f32> {
    #[cfg(target_endian = "little")]
    {
        let mut out = vec![0.0f32; bytes.len() / 4];
        f32_bytes_mut(&mut out).copy_from_slice(&bytes[..bytes.len() / 4 * 4]);
        out
    }
    #[cfg(not(target_endian = "little"))]
    get_f32s_each(bytes)
}

// The per-value decode a big-endian target runs. It is compiled everywhere,
// and the tests hold it to the byte views on every little-endian host.

#[cfg_attr(target_endian = "little", allow(dead_code))]
fn get_f32s_each(bytes: &[u8]) -> Vec<f32> {
    bytes.chunks_exact(4).map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])).collect()
}

/// Payload bit patterns a codec could plausibly disturb: -0.0, a subnormal,
/// ±inf, a quiet and a signalling NaN. Every `f32` path round-trips them by
/// `to_bits()`.
#[cfg(test)]
pub(crate) const AWKWARD_F32_BITS: [u32; 6] =
    [0x8000_0000, 0x0000_0001, 0x7F80_0000, 0xFF80_0000, 0x7FC0_0000, 0x7FA0_0001];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_slices_match_the_per_field_codec_bit_for_bit() {
        let data: Vec<f32> =
            AWKWARD_F32_BITS.iter().map(|&b| f32::from_bits(b)).chain([1.0, -2.5, 1e30]).collect();
        let mut one_by_one = vec![0xEE];
        for &v in &data {
            put::<f32>(&mut one_by_one, v);
        }
        let mut bulk = vec![0xEE];
        put_f32s(&mut bulk, &data);
        assert_eq!(bulk, one_by_one, "appends after what the buffer already holds");
        let back = get_f32s(&bulk[1..]);
        assert_eq!(
            back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            data.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert!(get_f32s(&[]).is_empty());
        assert_eq!(get_f32s(&bulk[1..bulk.len() - 1]).len(), data.len() - 1, "a short tail");
    }

    /// The per-value loops (`put_f32s` everywhere, `get_f32s_each` on a
    /// big-endian target) are held to the byte views they stand in for.
    #[cfg(target_endian = "little")]
    #[test]
    fn per_value_loops_equal_the_byte_views() {
        let data: Vec<f32> = AWKWARD_F32_BITS.iter().map(|&b| f32::from_bits(b)).collect();
        let mut each = vec![0xEE];
        put_f32s(&mut each, &data);
        assert_eq!(&each[1..], f32_bytes(&data));
        let back = get_f32s_each(f32_bytes(&data));
        assert_eq!(f32_bytes(&back), f32_bytes(&data));
        let mut viewed = vec![0.0f32; data.len()];
        f32_bytes_mut(&mut viewed).copy_from_slice(&each[1..]);
        assert_eq!(
            viewed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            AWKWARD_F32_BITS,
            "bytes written through the mutable view set those bits"
        );
    }

    #[test]
    fn fields_roundtrip_in_order_and_consume_exactly_their_width() {
        let mut buf = Vec::new();
        put::<u8>(&mut buf, 0xAB);
        put::<u16>(&mut buf, 0xBEEF);
        put::<u32>(&mut buf, 0xDEAD_BEEF);
        put::<u64>(&mut buf, u64::MAX - 1);
        put::<f32>(&mut buf, -1.5);
        put::<f64>(&mut buf, f64::MIN_POSITIVE);
        assert_eq!(buf.len(), 1 + 2 + 4 + 8 + 4 + 8);
        assert_eq!(&buf[1..3], &[0xEF, 0xBE], "little-endian on the wire");
        let mut r = buf.as_slice();
        assert_eq!(get::<u8>(&mut r), 0xAB);
        assert_eq!(get::<u16>(&mut r), 0xBEEF);
        assert_eq!(get::<u32>(&mut r), 0xDEAD_BEEF);
        assert_eq!(get::<u64>(&mut r), u64::MAX - 1);
        assert_eq!(get::<f32>(&mut r), -1.5);
        assert_eq!(get::<f64>(&mut r), f64::MIN_POSITIVE);
        assert!(r.is_empty());
    }
}
