//! Persistence for the pre-processing artifacts.
//!
//! Building `T_visible` over 10⁵ sampling positions is the paper's one-time
//! pre-processing step (§IV-B); a production deployment computes it once
//! per (layout, sampling config) and memoizes it on disk, in one format: a
//! compact framed binary (magic, version, CRC-32 of the body, then
//! fixed-width little-endian fields and LEB128 varints).

use crate::importance::ImportanceTable;
use crate::radius::RadiusModel;
use crate::sampling::{RadiusRule, SamplingConfig, VisibleTable};
use std::fs;
use std::io::{self, Read, Write};
use std::path::Path;
use viz_volume::le::{get, put};

const VIS_MAGIC: &[u8; 4] = b"TVIS";
const IMP_MAGIC: &[u8; 4] = b"TIMP";
/// The `T_visible` frame version: CSR payload, LEB128 varint
/// delta-encoded per entry, with a CRC-32 of the body right after the
/// version field so bit-rot on disk is rejected at load instead of
/// skewing predictions, and a self-describing binary header. (Versions
/// 1–3 carried a JSON header; no such file exists, so they are rejected
/// like any other unknown version.)
const VIS_VERSION: u16 = 4;
/// The `T_important` frame version: entropies + CRC-32 of the body.
const IMP_VERSION: u16 = 2;

fn err(m: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, m.into())
}

/// Append `v` as an LEB128 varint (1–5 bytes).
pub(crate) fn put_varint_u32(buf: &mut Vec<u8>, mut v: u32) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Read one LEB128 varint from the front of `buf`.
pub(crate) fn get_varint_u32(buf: &mut &[u8]) -> io::Result<u32> {
    let mut v: u32 = 0;
    for shift in [0u32, 7, 14, 21, 28] {
        if buf.is_empty() {
            return Err(err("truncated varint"));
        }
        let byte = get::<u8>(buf);
        let bits = (byte & 0x7F) as u32;
        if shift == 28 && bits > 0x0F {
            return Err(err("varint overflows u32"));
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(err("varint longer than 5 bytes"))
}

/// Serialize the `T_visible` header (sampling config + radius rule) in
/// the self-describing binary layout of frame version 4: fixed-width
/// little-endian fields plus a one-byte radius-rule tag.
fn encode_sampling_header(config: &SamplingConfig, rule: &RadiusRule) -> Vec<u8> {
    let mut h = Vec::with_capacity(64);
    put::<u32>(&mut h, config.n_theta as u32);
    put::<u32>(&mut h, config.n_phi as u32);
    put::<u32>(&mut h, config.n_dist as u32);
    put::<u32>(&mut h, config.vicinal_points as u32);
    put::<f64>(&mut h, config.d_min);
    put::<f64>(&mut h, config.d_max);
    put::<f64>(&mut h, config.view_angle);
    put::<u64>(&mut h, config.seed);
    match rule {
        RadiusRule::Fixed(r) => {
            put::<u8>(&mut h, 0);
            put::<f64>(&mut h, *r);
        }
        RadiusRule::Optimal(m) => {
            put::<u8>(&mut h, 1);
            put::<f64>(&mut h, m.cache_ratio);
            put::<f64>(&mut h, m.view_angle);
            put::<f64>(&mut h, m.min_radius);
        }
    }
    h
}

/// Parse a header produced by [`encode_sampling_header`].
fn decode_sampling_header(mut buf: &[u8]) -> io::Result<(SamplingConfig, RadiusRule)> {
    if buf.len() < 4 * 4 + 8 * 4 + 1 {
        return Err(err("truncated T_visible binary header"));
    }
    let config = SamplingConfig {
        n_theta: get::<u32>(&mut buf) as usize,
        n_phi: get::<u32>(&mut buf) as usize,
        n_dist: get::<u32>(&mut buf) as usize,
        vicinal_points: get::<u32>(&mut buf) as usize,
        d_min: get::<f64>(&mut buf),
        d_max: get::<f64>(&mut buf),
        view_angle: get::<f64>(&mut buf),
        seed: get::<u64>(&mut buf),
    };
    let rule = match get::<u8>(&mut buf) {
        0 => {
            if buf.len() < 8 {
                return Err(err("truncated fixed-radius rule"));
            }
            RadiusRule::Fixed(get::<f64>(&mut buf))
        }
        1 => {
            if buf.len() < 24 {
                return Err(err("truncated radius model"));
            }
            RadiusRule::Optimal(RadiusModel {
                cache_ratio: get::<f64>(&mut buf),
                view_angle: get::<f64>(&mut buf),
                min_radius: get::<f64>(&mut buf),
            })
        }
        t => return Err(err(format!("unknown radius-rule tag {t}"))),
    };
    if !buf.is_empty() {
        return Err(err("trailing bytes after T_visible binary header"));
    }
    Ok((config, rule))
}

/// Serialize a `T_visible` table: a small binary header (config + radius
/// rule) followed by the CSR payload — per entry a varint length, then the
/// first block id and successive (wrapping) deltas as varints. Entries are
/// sorted ascending, so deltas are small and most ids persist in 1–2 bytes.
pub fn encode_visible_table(t: &VisibleTable) -> io::Result<Vec<u8>> {
    let header = encode_sampling_header(&t.config, &t.radius_rule);
    let mut buf = Vec::with_capacity(header.len() + t.approx_bytes() / 2 + 64);
    buf.extend_from_slice(VIS_MAGIC);
    put::<u16>(&mut buf, VIS_VERSION);
    let crc_at = buf.len();
    put::<u32>(&mut buf, 0); // crc placeholder, patched below
    put::<u32>(&mut buf, header.len() as u32);
    buf.extend_from_slice(&header);
    put::<u32>(&mut buf, t.len() as u32);
    for i in 0..t.len() {
        let entry = t.entry(i);
        put_varint_u32(&mut buf, entry.len() as u32);
        let mut prev = 0u32;
        for (j, b) in entry.iter().enumerate() {
            // Wrapping deltas round-trip even if an entry is unsorted.
            put_varint_u32(&mut buf, if j == 0 { b.0 } else { b.0.wrapping_sub(prev) });
            prev = b.0;
        }
    }
    let crc = viz_volume::crc32(&buf[crc_at + 4..]);
    buf[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    Ok(buf)
}

/// Parse a buffer produced by [`encode_visible_table`].
pub fn decode_visible_table(mut buf: &[u8]) -> io::Result<VisibleTable> {
    if buf.len() < 14 {
        return Err(err("T_visible frame too short"));
    }
    let (magic, rest) = buf.split_at(4);
    buf = rest;
    if magic != VIS_MAGIC {
        return Err(err("bad T_visible magic"));
    }
    if get::<u16>(&mut buf) != VIS_VERSION {
        return Err(err("unsupported T_visible version"));
    }
    let want = get::<u32>(&mut buf);
    let got = viz_volume::crc32(buf);
    if got != want {
        return Err(err(format!(
            "T_visible checksum mismatch (stored {want:#010x}, computed {got:#010x})"
        )));
    }
    let hlen = get::<u32>(&mut buf) as usize;
    if buf.len() < hlen {
        return Err(err("truncated T_visible header"));
    }
    let (header, rest) = buf.split_at(hlen);
    buf = rest;
    let (config, radius_rule) = decode_sampling_header(header)?;
    if buf.len() < 4 {
        return Err(err("missing entry count"));
    }
    let n = get::<u32>(&mut buf) as usize;
    // Each entry costs at least its one-byte length varint: bound the
    // allocation by what the frame can actually hold.
    if n > buf.len() {
        return Err(err("entry count exceeds T_visible payload"));
    }
    let mut offsets = Vec::with_capacity(n + 1);
    let mut ids: Vec<viz_volume::BlockId> = Vec::new();
    offsets.push(0u32);
    for _ in 0..n {
        let k = get_varint_u32(&mut buf)? as usize;
        let mut prev = 0u32;
        for j in 0..k {
            let raw = get_varint_u32(&mut buf)?;
            prev = if j == 0 { raw } else { prev.wrapping_add(raw) };
            ids.push(viz_volume::BlockId(prev));
        }
        if ids.len() > u32::MAX as usize {
            return Err(err("T_visible id count overflows u32 offsets"));
        }
        offsets.push(ids.len() as u32);
    }
    if !buf.is_empty() {
        return Err(err("trailing bytes after T_visible payload"));
    }
    VisibleTable::from_csr(config, radius_rule, offsets, ids).map_err(err)
}

/// Serialize a `T_important` table (bin count + per-block entropies).
pub(crate) fn encode_importance_table(t: &ImportanceTable) -> Vec<u8> {
    let mut buf = Vec::with_capacity(18 + t.len() * 8);
    buf.extend_from_slice(IMP_MAGIC);
    put::<u16>(&mut buf, IMP_VERSION);
    let crc_at = buf.len();
    put::<u32>(&mut buf, 0); // crc placeholder, patched below
    put::<u32>(&mut buf, t.bins as u32);
    put::<u32>(&mut buf, t.len() as u32);
    for i in 0..t.len() {
        put::<f64>(&mut buf, t.entropy(viz_volume::BlockId(i as u32)));
    }
    let crc = viz_volume::crc32(&buf[crc_at + 4..]);
    buf[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Parse a buffer produced by [`encode_importance_table`].
pub(crate) fn decode_importance_table(mut buf: &[u8]) -> io::Result<ImportanceTable> {
    if buf.len() < 18 {
        return Err(err("T_important frame too short"));
    }
    let (magic, rest) = buf.split_at(4);
    buf = rest;
    if magic != IMP_MAGIC {
        return Err(err("bad T_important magic"));
    }
    if get::<u16>(&mut buf) != IMP_VERSION {
        return Err(err("unsupported T_important version"));
    }
    let want = get::<u32>(&mut buf);
    let got = viz_volume::crc32(buf);
    if got != want {
        return Err(err(format!(
            "T_important checksum mismatch (stored {want:#010x}, computed {got:#010x})"
        )));
    }
    let bins = get::<u32>(&mut buf) as usize;
    let n = get::<u32>(&mut buf) as usize;
    if buf.len() != n * 8 {
        return Err(err("T_important payload length mismatch"));
    }
    let mut by_block = Vec::with_capacity(n);
    for _ in 0..n {
        by_block.push(get::<f64>(&mut buf));
    }
    Ok(ImportanceTable::from_entropies(by_block, bins))
}

/// Write both tables next to each other under `dir`
/// (`t_visible.bin`, `t_important.bin`).
pub fn save_tables(
    dir: &Path,
    visible: &VisibleTable,
    importance: &ImportanceTable,
) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let atomically = |name: &str, bytes: &[u8]| -> io::Result<()> {
        let tmp = dir.join(format!("{name}.tmp"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
        }
        fs::rename(tmp, dir.join(name))
    };
    atomically("t_visible.bin", &encode_visible_table(visible)?)?;
    atomically("t_important.bin", &encode_importance_table(importance))
}

/// Load tables previously written by [`save_tables`].
pub fn load_tables(dir: &Path) -> io::Result<(VisibleTable, ImportanceTable)> {
    let read = |name: &str| -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        fs::File::open(dir.join(name))?.read_to_end(&mut buf)?;
        Ok(buf)
    };
    Ok((
        decode_visible_table(&read("t_visible.bin")?)?,
        decode_importance_table(&read("t_important.bin")?)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radius::RadiusModel;
    use crate::sampling::{RadiusRule, SamplingConfig};
    use viz_geom::angle::deg_to_rad;
    use viz_volume::{BrickLayout, Dims3};

    fn sample_tables() -> (VisibleTable, ImportanceTable) {
        let layout = BrickLayout::new(Dims3::cube(32), Dims3::cube(8));
        let cfg = SamplingConfig {
            n_theta: 4,
            n_phi: 8,
            n_dist: 2,
            d_min: 2.0,
            d_max: 3.0,
            vicinal_points: 3,
            view_angle: deg_to_rad(20.0),
            seed: 77,
        };
        let imp = ImportanceTable::from_entropies(
            (0..layout.num_blocks()).map(|i| (i % 7) as f64).collect(),
            32,
        );
        let tv = VisibleTable::build(
            cfg,
            &layout,
            RadiusRule::Optimal(RadiusModel::new(0.3, deg_to_rad(20.0))),
            Some((&imp, 10)),
        );
        (tv, imp)
    }

    #[test]
    fn visible_table_binary_roundtrip() {
        let (tv, _) = sample_tables();
        let buf = encode_visible_table(&tv).unwrap();
        let back = decode_visible_table(&buf).unwrap();
        assert_eq!(back.len(), tv.len());
        assert_eq!(back.config, tv.config);
        assert_eq!(back.radius_rule, tv.radius_rule);
        for i in 0..tv.len() {
            assert_eq!(back.entry(i), tv.entry(i), "entry {i}");
        }
    }

    #[test]
    fn importance_table_binary_roundtrip() {
        let (_, imp) = sample_tables();
        let buf = encode_importance_table(&imp);
        let back = decode_importance_table(&buf).unwrap();
        assert_eq!(back, imp);
    }

    #[test]
    fn corrupted_magic_rejected() {
        let (tv, imp) = sample_tables();
        let mut a = encode_visible_table(&tv).unwrap();
        a[0] = b'X';
        assert!(decode_visible_table(&a).is_err());
        let mut b = encode_importance_table(&imp);
        b[1] = b'?';
        assert!(decode_importance_table(&b).is_err());
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let (tv, _) = sample_tables();
        let buf = encode_visible_table(&tv).unwrap();
        // Cut at several depths: header, count, entry bodies.
        for cut in [2usize, 8, 12, buf.len() / 2, buf.len() - 1] {
            assert!(decode_visible_table(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let (tv, _) = sample_tables();
        let mut buf = encode_visible_table(&tv).unwrap();
        buf.extend_from_slice(&[0, 1, 2, 3]);
        assert!(decode_visible_table(&buf).is_err());
    }

    #[test]
    fn save_load_files_roundtrip() {
        let dir = std::env::temp_dir().join(format!("viz_persist_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (tv, imp) = sample_tables();
        save_tables(&dir, &tv, &imp).unwrap();
        let (tv2, imp2) = load_tables(&dir).unwrap();
        assert_eq!(tv2.len(), tv.len());
        assert_eq!(imp2, imp);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loading_missing_dir_errors() {
        let dir = std::env::temp_dir().join("viz_persist_definitely_missing");
        assert!(load_tables(&dir).is_err());
    }

    #[test]
    fn varint_roundtrips_edge_values() {
        for v in [0u32, 1, 127, 128, 300, 16_383, 16_384, 1 << 21, u32::MAX - 1, u32::MAX] {
            let mut buf = Vec::new();
            put_varint_u32(&mut buf, v);
            assert!(buf.len() <= 5);
            let mut s = buf.as_slice();
            assert_eq!(get_varint_u32(&mut s).unwrap(), v);
            assert!(s.is_empty());
        }
        // Overlong / overflowing encodings are rejected.
        let mut s: &[u8] = &[0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        assert!(get_varint_u32(&mut s).is_err());
        let mut s: &[u8] = &[0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
        assert!(get_varint_u32(&mut s).is_err());
        let mut s: &[u8] = &[0x80];
        assert!(get_varint_u32(&mut s).is_err());
    }

    #[test]
    fn varint_payload_is_smaller_than_fixed_width() {
        let (tv, _) = sample_tables();
        let v4 = encode_visible_table(&tv).unwrap();
        // Strip the fixed prefix (magic + version + crc + hlen + header +
        // count) to isolate the varint-delta payload, then compare with
        // the fixed-width (u32 length + u32 ids) cost of the same CSR data.
        let hlen = u32::from_le_bytes(v4[10..14].try_into().unwrap()) as usize;
        let varint_payload = v4.len() - (14 + hlen + 4);
        let fixed_payload = tv.len() * 4 + tv.csr_ids().len() * 4;
        assert!(
            varint_payload < fixed_payload,
            "varint {varint_payload} bytes >= fixed {fixed_payload} bytes"
        );
    }

    #[test]
    fn fixed_radius_rule_survives_binary_header() {
        let layout = BrickLayout::new(Dims3::cube(32), Dims3::cube(8));
        let cfg = SamplingConfig {
            n_theta: 3,
            n_phi: 6,
            n_dist: 2,
            d_min: 2.0,
            d_max: 3.0,
            vicinal_points: 2,
            view_angle: deg_to_rad(25.0),
            seed: 9,
        };
        let tv = VisibleTable::build(cfg, &layout, RadiusRule::Fixed(0.075), None);
        let back = decode_visible_table(&encode_visible_table(&tv).unwrap()).unwrap();
        assert_eq!(back.config, tv.config);
        assert_eq!(back.radius_rule, tv.radius_rule);
    }

    #[test]
    fn bit_rot_in_visible_table_rejected_by_checksum() {
        let (tv, _) = sample_tables();
        let buf = encode_visible_table(&tv).unwrap();
        // Flip a single payload bit past the header region: without the
        // checksum this would silently skew a prediction entry.
        let mut rotted = buf.clone();
        let at = buf.len() - 2;
        rotted[at] ^= 0x10;
        let err = decode_visible_table(&rotted).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    #[test]
    fn bit_rot_in_importance_table_rejected_by_checksum() {
        let (_, imp) = sample_tables();
        let buf = encode_importance_table(&imp);
        let mut rotted = buf.clone();
        let at = buf.len() - 3; // middle of an f64 entropy
        rotted[at] ^= 0x01;
        let err = decode_importance_table(&rotted).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    /// Only the current frame versions decode: the retired JSON-header
    /// `T_visible` layouts (1–3) and the unchecksummed `T_important`
    /// version 1 are refused like any other unknown version.
    #[test]
    fn unknown_version_rejected() {
        let (tv, imp) = sample_tables();
        let vis = encode_visible_table(&tv).unwrap();
        for version in [0u8, 1, 2, 3, 5, 99] {
            let mut buf = vis.clone();
            buf[4] = version; // version field low byte
            let e = decode_visible_table(&buf).unwrap_err();
            assert!(e.to_string().contains("unsupported"), "version {version}: {e}");
        }
        let imp = encode_importance_table(&imp);
        for version in [0u8, 1, 3, 99] {
            let mut buf = imp.clone();
            buf[4] = version;
            let e = decode_importance_table(&buf).unwrap_err();
            assert!(e.to_string().contains("unsupported"), "version {version}: {e}");
        }
    }

    #[test]
    fn predictions_survive_roundtrip() {
        let (tv, _) = sample_tables();
        let buf = encode_visible_table(&tv).unwrap();
        let back = decode_visible_table(&buf).unwrap();
        let pose = viz_geom::CameraPose::orbit(45.0, 90.0, 2.5, 20.0);
        assert_eq!(back.predict(&pose), tv.predict(&pose));
    }
}
