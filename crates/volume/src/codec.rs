//! Lossless block compression.
//!
//! Out-of-core visualization is bandwidth-bound, and simulation volumes
//! compress well: ambient regions are near-constant and smooth fields have
//! highly repetitive upper bytes. This codec splits the f32 payload into
//! its four byte planes (all sign/exponent bytes together, etc.) and
//! run-length encodes each plane — zero-dependency, deterministic, and
//! exactly lossless, so data-dependent analytics are unaffected.
//!
//! The paper's cost model charges I/O by bytes moved, so compressed blocks
//! directly shrink simulated (and real) fetch times for ambient regions.

use crate::le::{get_f32s, put_f32s};

/// Available block codecs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Codec {
    /// No compression: 4 bytes per voxel.
    #[default]
    Raw,
    /// Byte-plane split + per-plane run-length encoding.
    PlaneRle,
}

impl Codec {
    /// Wire tag stored in block frames.
    pub fn tag(self) -> u8 {
        match self {
            Codec::Raw => 0,
            Codec::PlaneRle => 1,
        }
    }

    /// Codec from a wire tag.
    pub(crate) fn from_tag(tag: u8) -> Option<Codec> {
        match tag {
            0 => Some(Codec::Raw),
            1 => Some(Codec::PlaneRle),
            _ => None,
        }
    }

    /// Compress a voxel payload.
    pub fn compress(self, data: &[f32]) -> Vec<u8> {
        match self {
            Codec::Raw => raw_bytes(data),
            Codec::PlaneRle => plane_rle_compress(data),
        }
    }

    /// Decompress back into voxels; `count` is the expected voxel count.
    /// A `count` that `bytes` cannot hold is refused before any buffer is
    /// sized from it, so an untrusted count cannot drive an allocation.
    pub(crate) fn decompress(self, bytes: &[u8], count: usize) -> Result<Vec<f32>, String> {
        match self {
            Codec::Raw => raw_floats(bytes, count),
            Codec::PlaneRle => plane_rle_decompress(bytes, count),
        }
    }
}

fn raw_bytes(data: &[f32]) -> Vec<u8> {
    let mut out = Vec::new();
    put_f32s(&mut out, data);
    out
}

fn raw_floats(bytes: &[u8], count: usize) -> Result<Vec<f32>, String> {
    if bytes.len() % 4 != 0 || bytes.len() / 4 != count {
        return Err(format!("raw payload of {} bytes does not hold {count} voxels", bytes.len()));
    }
    Ok(get_f32s(bytes))
}

/// RLE of one byte plane: pairs `(run_len_u8, value)`, runs capped at 255.
fn rle_encode(plane: impl Iterator<Item = u8>, out: &mut Vec<u8>) {
    let mut run: Option<(u8, u32)> = None;
    for b in plane {
        match run {
            Some((v, n)) if v == b && n < 255 => run = Some((v, n + 1)),
            Some((v, n)) => {
                out.push(n as u8);
                out.push(v);
                run = Some((b, 1));
                let _ = n;
            }
            None => run = Some((b, 1)),
        }
    }
    if let Some((v, n)) = run {
        out.push(n as u8);
        out.push(v);
    }
}

fn plane_rle_compress(data: &[f32]) -> Vec<u8> {
    let n = data.len();
    let mut out = Vec::new();
    // Per-plane sections, each prefixed by its encoded length (u32 LE).
    for plane_idx in 0..4usize {
        let mut section = Vec::new();
        rle_encode(data.iter().map(|v| v.to_le_bytes()[plane_idx]), &mut section);
        out.extend_from_slice(&(section.len() as u32).to_le_bytes());
        out.extend_from_slice(&section);
    }
    let _ = n;
    out
}

fn plane_rle_decompress(bytes: &[u8], count: usize) -> Result<Vec<f32>, String> {
    let mut planes: Vec<Vec<u8>> = Vec::with_capacity(4);
    let mut cursor = 0usize;
    for plane_idx in 0..4 {
        if cursor + 4 > bytes.len() {
            return Err(format!("truncated plane {plane_idx} header"));
        }
        let len = u32::from_le_bytes([
            bytes[cursor],
            bytes[cursor + 1],
            bytes[cursor + 2],
            bytes[cursor + 3],
        ]) as usize;
        cursor += 4;
        if cursor + len > bytes.len() {
            return Err(format!("truncated plane {plane_idx} body"));
        }
        let section = &bytes[cursor..cursor + len];
        cursor += len;
        if section.len() % 2 != 0 {
            return Err(format!("odd RLE section in plane {plane_idx}"));
        }
        // Each 2-byte run holds at most 255 voxels.
        if count > (section.len() / 2).saturating_mul(255) {
            return Err(format!("plane {plane_idx} cannot hold {count} voxels"));
        }
        let mut plane = Vec::with_capacity(count);
        for pair in section.chunks_exact(2) {
            let (n, v) = (pair[0] as usize, pair[1]);
            if n == 0 {
                return Err("zero-length run".to_string());
            }
            plane.resize(plane.len() + n, v);
        }
        if plane.len() != count {
            return Err(format!(
                "plane {plane_idx} decoded {} voxels, expected {count}",
                plane.len()
            ));
        }
        planes.push(plane);
    }
    if cursor != bytes.len() {
        return Err("trailing bytes after final plane".to_string());
    }
    Ok((0..count)
        .map(|i| f32::from_le_bytes([planes[0][i], planes[1][i], planes[2][i], planes[3][i]]))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `raw bytes / encoded bytes` under plane RLE.
    fn ratio(data: &[f32]) -> f64 {
        (data.len() * 4) as f64 / Codec::PlaneRle.compress(data).len() as f64
    }

    fn roundtrip(codec: Codec, data: &[f32]) {
        let bytes = codec.compress(data);
        let back = codec.decompress(&bytes, data.len()).unwrap();
        assert_eq!(back.len(), data.len());
        for (a, b) in data.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exact roundtrip required");
        }
    }

    #[test]
    fn raw_roundtrip() {
        roundtrip(Codec::Raw, &[1.0, -2.5, 0.0, f32::MIN_POSITIVE, 1e30]);
        roundtrip(Codec::Raw, &crate::le::AWKWARD_F32_BITS.map(f32::from_bits));
    }

    #[test]
    fn rle_roundtrip_constant() {
        roundtrip(Codec::PlaneRle, &[3.25; 1000]);
    }

    #[test]
    fn rle_roundtrip_varied() {
        let data: Vec<f32> = (0..4097).map(|i| (i as f32 * 0.37).sin() * 1000.0).collect();
        roundtrip(Codec::PlaneRle, &data);
    }

    #[test]
    fn rle_roundtrip_special_values() {
        roundtrip(
            Codec::PlaneRle,
            &[0.0, -0.0, f32::INFINITY, f32::NEG_INFINITY, f32::MIN_POSITIVE, 1.0],
        );
    }

    #[test]
    fn nan_payload_roundtrips_bitwise() {
        let nan1 = f32::from_bits(0x7FC0_0001);
        let nan2 = f32::from_bits(0xFFC0_0002);
        let data = vec![nan1, 1.0, nan2];
        let bytes = Codec::PlaneRle.compress(&data);
        let back = Codec::PlaneRle.decompress(&bytes, 3).unwrap();
        assert_eq!(back[0].to_bits(), nan1.to_bits());
        assert_eq!(back[2].to_bits(), nan2.to_bits());
    }

    #[test]
    fn empty_payload() {
        roundtrip(Codec::PlaneRle, &[]);
        roundtrip(Codec::Raw, &[]);
    }

    #[test]
    fn ambient_blocks_compress_massively() {
        let r = ratio(&[0.0; 32 * 32 * 32]);
        assert!(r > 100.0, "ambient ratio only {r}");
    }

    #[test]
    fn smooth_blocks_still_compress() {
        // A smooth ramp: upper byte planes are long runs.
        let data: Vec<f32> = (0..4096).map(|i| i as f32 / 4096.0).collect();
        let r = ratio(&data);
        assert!(r > 1.5, "smooth ratio only {r}");
    }

    #[test]
    fn incompressible_noise_does_not_explode() {
        // Worst case for RLE is alternating bytes: ≤ 2x expansion.
        let data: Vec<f32> =
            (0..2048).map(|i| f32::from_bits((i as u32).wrapping_mul(2654435761))).collect();
        let encoded = Codec::PlaneRle.compress(&data).len();
        assert!(encoded <= data.len() * 8 + 16, "expansion {encoded}");
        roundtrip(Codec::PlaneRle, &data);
    }

    #[test]
    fn decompress_rejects_corruption() {
        let data = vec![1.0f32; 64];
        let bytes = Codec::PlaneRle.compress(&data);
        assert!(Codec::PlaneRle.decompress(&bytes[..bytes.len() - 1], 64).is_err());
        assert!(Codec::PlaneRle.decompress(&bytes, 63).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Codec::PlaneRle.decompress(&extra, 64).is_err());
        assert!(Codec::Raw.decompress(&[0u8; 7], 2).is_err());
        // A count the bytes cannot hold fails before anything is sized.
        assert!(Codec::PlaneRle.decompress(&bytes, 1 << 34).is_err());
        assert!(Codec::Raw.decompress(&[0u8; 8], usize::MAX / 2).is_err());
    }

    #[test]
    fn tags_roundtrip() {
        for c in [Codec::Raw, Codec::PlaneRle] {
            assert_eq!(Codec::from_tag(c.tag()), Some(c));
        }
        assert_eq!(Codec::from_tag(99), None);
    }
}
