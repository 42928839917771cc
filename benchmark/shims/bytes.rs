//! Offline stand-in for `bytes`: the little-endian cursor subset the
//! workspace codecs use, over `&[u8]` (read) and `Vec<u8>` (write).
macro_rules! getters {
    ($($name:ident -> $ty:ty),*) => {$(
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_le_bytes(raw)
        }
    )*};
}

macro_rules! putters {
    ($($name:ident <- $ty:ty),*) => {$(
        fn $name(&mut self, v: $ty) {
            self.put_slice(&v.to_le_bytes());
        }
    )*};
}

pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Panics when fewer than `dst.len()` bytes remain, as `bytes` does.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    getters!(get_u16_le -> u16, get_u32_le -> u32, get_u64_le -> u64, get_f32_le -> f32, get_f64_le -> f64);
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    putters!(put_u16_le <- u16, put_u32_le <- u32, put_u64_le <- u64, put_f32_le <- f32, put_f64_le <- f64);
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}
