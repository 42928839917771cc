//! Little-endian field I/O for the framed binary codecs (`VBLK` here;
//! `TVIS`, `TIMP`, `THBT` and `VJRN` in `viz-core`): append a field to a
//! `Vec<u8>`, split one off the front of a `&[u8]`.

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

#[cfg(test)]
mod tests {
    use super::*;

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
