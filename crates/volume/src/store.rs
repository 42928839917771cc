//! On-disk block store.
//!
//! The paper streams blocks from HDD → SSD → DRAM. This module provides the
//! "resident on storage" end of that pipeline: each block is a framed binary
//! file (magic + dims + CRC-32 + f32 payload), written once during
//! pre-processing and random-accessed during visualization. The checksum
//! turns on-disk bit-rot into an `InvalidData` error at decode time instead
//! of NaN frames downstream. An in-memory implementation backs tests and
//! pure simulations.

use crate::dims::Dims3;
use crate::field::VolumeField;
use crate::layout::{BlockId, BrickLayout};
use crate::le::{get, get_f32s, put, put_f32s};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::{PoisonError, RwLock};

/// Addresses one cached unit: a block of one variable at one timestep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    /// Variable index.
    pub var: u16,
    /// Timestep index.
    pub time: u16,
    /// Block within the layout.
    pub block: BlockId,
}

impl BlockKey {
    /// Address block `block` of variable `var` at timestep `time`.
    pub fn new(var: u16, time: u16, block: BlockId) -> Self {
        BlockKey { var, time, block }
    }

    /// Single-variable static datasets address blocks directly.
    pub fn scalar(block: BlockId) -> Self {
        BlockKey { var: 0, time: 0, block }
    }
}

/// Source of block payloads. Implementations must be safe to call from
/// multiple threads (the prefetcher reads concurrently with the renderer).
pub trait BlockSource: Send + Sync {
    /// Read the full voxel payload of a block.
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>>;

    /// Payload size in bytes without reading it.
    fn block_bytes(&self, key: BlockKey) -> io::Result<usize>;
}

const MAGIC: &[u8; 4] = b"VBLK";
const VERSION_CRC: u16 = 3;
/// Bytes before the payload of a v3 frame: magic, version, dims, CRC.
const RAW_HEADER: usize = 4 + 2 + 12 + 4;

/// Serialize one block payload with its self-describing frame (v3: raw +
/// CRC-32 of the payload, so bit-rot surfaces as `InvalidData` at decode
/// instead of NaN frames downstream).
pub fn encode_block(dims: Dims3, data: &[f32]) -> Vec<u8> {
    assert_eq!(dims.count(), data.len(), "dims/payload mismatch");
    let mut buf = Vec::with_capacity(RAW_HEADER + data.len() * 4);
    buf.extend_from_slice(MAGIC);
    put::<u16>(&mut buf, VERSION_CRC);
    put::<u32>(&mut buf, dims.nx as u32);
    put::<u32>(&mut buf, dims.ny as u32);
    put::<u32>(&mut buf, dims.nz as u32);
    let crc_at = buf.len();
    put::<u32>(&mut buf, 0); // crc placeholder
    put_f32s(&mut buf, data);
    let crc = crate::checksum::crc32(&buf[crc_at + 4..]);
    buf[crc_at..crc_at + 4].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Parse a frame produced by [`encode_block`].
///
/// The dims sit outside the CRC, so they are untrusted: a voxel count that
/// overflows, or that the payload cannot hold, is `InvalidData` before
/// anything is allocated for it. Only v3 frames are read; any other
/// version is `unsupported block version`.
pub fn decode_block(buf: &[u8]) -> io::Result<(Dims3, Vec<f32>)> {
    let err = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    if buf.len() < 6 {
        return Err(err("block frame too short".into()));
    }
    let (magic, mut rest) = buf.split_at(4);
    if magic != MAGIC {
        return Err(err("bad magic".into()));
    }
    if get::<u16>(&mut rest) != VERSION_CRC {
        return Err(err("unsupported block version".into()));
    }
    if buf.len() < RAW_HEADER {
        return Err(err("block frame too short".into()));
    }
    let dims = Dims3::new(
        get::<u32>(&mut rest) as usize,
        get::<u32>(&mut rest) as usize,
        get::<u32>(&mut rest) as usize,
    );
    let count = dims.checked_count().ok_or_else(|| err(format!("block dims {dims} overflow")))?;
    let want = get::<u32>(&mut rest);
    let got = crate::checksum::crc32(rest);
    if got != want {
        return Err(err(format!(
            "block payload checksum mismatch (stored {want:#010x}, computed {got:#010x})"
        )));
    }
    let len = rest.len();
    if len % 4 != 0 || len / 4 != count {
        return Err(err(format!("payload of {len} bytes does not hold {count} voxels")));
    }
    Ok((dims, get_f32s(rest)))
}

/// File-per-block store rooted at a directory.
///
/// Layout: `<root>/v<var>_t<time>_b<block>.vblk`.
#[derive(Debug)]
pub struct DiskBlockStore {
    root: PathBuf,
}

impl DiskBlockStore {
    /// Open (creating the directory if needed).
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(DiskBlockStore { root })
    }

    fn path_of(&self, key: BlockKey) -> PathBuf {
        self.root.join(format!("v{}_t{}_b{}.vblk", key.var, key.time, key.block.0))
    }

    /// Write one block as a v3 frame.
    ///
    /// The frame is staged in a uniquely named `.tmp` sibling, fsynced,
    /// then atomically renamed over the final path: a crash mid-write can
    /// only leave stray `.tmp` litter (never read back), not a truncated
    /// frame that would surface later as a CRC `InvalidData` miss. Unique
    /// staging names (pid + per-process counter) also keep concurrent
    /// writers of the same key from interleaving into one temp file.
    /// After the rename the parent directory is fsynced too — the rename
    /// itself lives in directory metadata, and without that sync a power
    /// loss could silently roll a key back to its previous frame.
    pub(crate) fn write_block(&self, key: BlockKey, dims: Dims3, data: &[f32]) -> io::Result<()> {
        static WRITE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let bytes = encode_block(dims, data);
        let path = self.path_of(key);
        let seq = WRITE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("{}.{}.tmp", std::process::id(), seq));
        let staged = (|| {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()
        })();
        let res = staged
            .and_then(|()| fs::rename(&tmp, &path))
            .and_then(|()| fs::File::open(&self.root)?.sync_all());
        if res.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        res
    }

    /// Write every block of a materialized field (pre-processing step).
    pub fn write_field(
        &self,
        layout: &BrickLayout,
        field: &VolumeField,
        var: u16,
        time: u16,
    ) -> io::Result<()> {
        for id in layout.block_ids() {
            let data = field.extract_block(layout, id);
            self.write_block(BlockKey::new(var, time, id), layout.block_dims(id), &data)?;
        }
        Ok(())
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl BlockSource for DiskBlockStore {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        let mut buf = Vec::new();
        fs::File::open(self.path_of(key))?.read_to_end(&mut buf)?;
        decode_block(&buf).map(|(_, data)| data)
    }

    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        // On-disk payload size (what a fetch actually moves): the file
        // minus the v3 header, the one frame version there is.
        let meta = fs::metadata(self.path_of(key))?;
        Ok((meta.len() as usize).saturating_sub(RAW_HEADER))
    }
}

/// In-memory store for tests and pure simulation runs.
#[derive(Debug, Default)]
pub struct MemBlockStore {
    blocks: RwLock<HashMap<BlockKey, Vec<f32>>>,
}

impl MemBlockStore {
    /// Create an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) one block payload.
    pub fn insert(&self, key: BlockKey, data: Vec<f32>) {
        self.blocks.write().unwrap_or_else(PoisonError::into_inner).insert(key, data);
    }

    /// Load every block of a field.
    pub fn insert_field(&self, layout: &BrickLayout, field: &VolumeField, var: u16, time: u16) {
        let mut map = self.blocks.write().unwrap_or_else(PoisonError::into_inner);
        for id in layout.block_ids() {
            map.insert(BlockKey::new(var, time, id), field.extract_block(layout, id));
        }
    }

    /// Number of stored blocks.
    pub fn len(&self) -> usize {
        self.blocks.read().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.blocks.read().unwrap_or_else(PoisonError::into_inner).is_empty()
    }
}

impl BlockSource for MemBlockStore {
    fn read_block(&self, key: BlockKey) -> io::Result<Vec<f32>> {
        self.blocks
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{key:?} not in store")))
    }

    fn block_bytes(&self, key: BlockKey) -> io::Result<usize> {
        self.blocks
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
            .map(|d| d.len() * 4)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, format!("{key:?} not in store")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("viz_store_test_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        p
    }

    #[test]
    fn encode_decode_roundtrip() {
        let dims = Dims3::new(3, 2, 2);
        let data: Vec<f32> = (0..12).map(|i| i as f32 * 0.5).collect();
        let buf = encode_block(dims, &data);
        let (d2, v2) = decode_block(&buf).unwrap();
        assert_eq!(d2, dims);
        assert_eq!(v2, data);
    }

    /// A frame printed by `encode_block` as it stood before the bulk payload
    /// copy (commit a1655a2): the on-disk format did not move.
    #[test]
    fn golden_frame_from_the_previous_encoder() {
        let hex = concat!(
            "56424c4b0300030000000200000002000000cc22660b000080bf000000bf0000",
            "00000000003f0000803f0000c03f000000400000204000004040000060400000",
            "804000009040",
        );
        let golden: Vec<u8> = (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect();
        let dims = Dims3::new(3, 2, 2);
        let data: Vec<f32> = (0..12).map(|i| i as f32 * 0.5 - 1.0).collect();
        assert_eq!(encode_block(dims, &data), golden);
        assert_eq!(decode_block(&golden).unwrap(), (dims, data));
    }

    #[test]
    fn payload_bits_survive_a_block_frame() {
        let bits = crate::le::AWKWARD_F32_BITS;
        let (_, back) =
            decode_block(&encode_block(Dims3::new(6, 1, 1), &bits.map(f32::from_bits))).unwrap();
        assert_eq!(back.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), bits);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut buf = encode_block(Dims3::new(1, 1, 1), &[1.0]);
        buf[0] = b'X';
        assert!(decode_block(&buf).is_err());
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let buf = encode_block(Dims3::new(2, 2, 2), &[0.0; 8]);
        assert!(decode_block(&buf[..buf.len() - 4]).is_err());
        assert!(decode_block(&buf[..10]).is_err());
    }

    #[test]
    fn decode_rejects_wrong_version() {
        // The pre-checksum v1/v2 frames are no longer read either.
        for version in [1, 2, 99] {
            let mut buf = encode_block(Dims3::new(1, 1, 1), &[1.0]);
            buf[4] = version;
            let err = decode_block(&buf).unwrap_err();
            assert!(err.to_string().contains("unsupported block version"), "got: {err}");
        }
    }

    #[test]
    fn disk_store_roundtrip() {
        let dir = tmpdir("roundtrip");
        let store = DiskBlockStore::open(&dir).unwrap();
        let key = BlockKey::new(1, 2, BlockId(7));
        let data = vec![1.5f32, -2.5, 0.0];
        store.write_block(key, Dims3::new(3, 1, 1), &data).unwrap();
        assert_eq!(store.read_block(key).unwrap(), data);
        assert_eq!(store.block_bytes(key).unwrap(), 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_store_missing_block_errors() {
        let dir = tmpdir("missing");
        let store = DiskBlockStore::open(&dir).unwrap();
        assert!(store.read_block(BlockKey::scalar(BlockId(0))).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn write_field_then_read_all_blocks() {
        let dir = tmpdir("field");
        let store = DiskBlockStore::open(&dir).unwrap();
        let dims = Dims3::new(8, 8, 4);
        let field =
            VolumeField::from_function(dims, &|x: f64, y: f64, z: f64, _| (x + y + z) as f32, 0.0);
        let layout = BrickLayout::new(dims, Dims3::cube(4));
        store.write_field(&layout, &field, 0, 0).unwrap();
        for id in layout.block_ids() {
            let got = store.read_block(BlockKey::scalar(id)).unwrap();
            assert_eq!(got, field.extract_block(&layout, id));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_write_leaves_no_truncated_frame() {
        let dir = tmpdir("crash");
        let store = DiskBlockStore::open(&dir).unwrap();
        let key = BlockKey::scalar(BlockId(3));
        let data = vec![4.0f32, 5.0, 6.0];
        store.write_block(key, Dims3::new(3, 1, 1), &data).unwrap();

        // Simulate a writer that died mid-stage: a partial temp file next
        // to the good frame. It must never shadow the committed data.
        let good = decode_block(&{
            let mut buf = Vec::new();
            fs::File::open(dir.join("v0_t0_b3.vblk")).unwrap().read_to_end(&mut buf).unwrap();
            buf
        })
        .unwrap();
        fs::write(dir.join("v0_t0_b3.9999.0.tmp"), [0x56, 0x42, 0x4c]).unwrap();
        assert_eq!(store.read_block(key).unwrap(), data);
        assert_eq!(good.1, data);

        // A fresh write still commits atomically over the final name and
        // ignores the stale litter.
        let data2 = vec![7.0f32, 8.0, 9.0];
        store.write_block(key, Dims3::new(3, 1, 1), &data2).unwrap();
        assert_eq!(store.read_block(key).unwrap(), data2);

        // A never-written key with only temp litter reports NotFound, not
        // InvalidData: litter is invisible to readers.
        fs::write(dir.join("v0_t0_b4.1234.0.tmp"), [0u8; 5]).unwrap();
        let err = store.read_block(BlockKey::scalar(BlockId(4))).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_overwrite_commits_and_leaves_no_staging_litter() {
        let dir = tmpdir("durable");
        let store = DiskBlockStore::open(&dir).unwrap();
        let key = BlockKey::scalar(BlockId(11));
        store.write_block(key, Dims3::new(2, 1, 1), &[1.0, 2.0]).unwrap();
        // Overwriting the same key exercises the full stage → fsync →
        // rename → parent-dir fsync path with a pre-existing final file.
        store.write_block(key, Dims3::new(2, 1, 1), &[3.0, 4.0]).unwrap();
        assert_eq!(store.read_block(key).unwrap(), vec![3.0, 4.0]);
        // Successful writes clean up after themselves: only the committed
        // frame remains, no `.tmp` staging litter.
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, vec!["v0_t0_b11.vblk".to_string()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_of_one_key_never_interleave() {
        let dir = tmpdir("racewrite");
        let store = std::sync::Arc::new(DiskBlockStore::open(&dir).unwrap());
        let key = BlockKey::scalar(BlockId(0));
        let dims = Dims3::new(64, 1, 1);
        let handles: Vec<_> = (0..4u32)
            .map(|w| {
                let s = store.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        s.write_block(key, dims, &vec![w as f32; 64]).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Whatever write won, the frame decodes cleanly and is one
        // writer's payload, not a mix.
        let got = store.read_block(key).unwrap();
        assert_eq!(got.len(), 64);
        assert!(got.iter().all(|&v| v == got[0]), "interleaved frame: {got:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mem_store_roundtrip_and_len() {
        let store = MemBlockStore::new();
        assert!(store.is_empty());
        store.insert(BlockKey::scalar(BlockId(3)), vec![9.0]);
        assert_eq!(store.len(), 1);
        assert_eq!(store.read_block(BlockKey::scalar(BlockId(3))).unwrap(), vec![9.0]);
        assert!(store.read_block(BlockKey::scalar(BlockId(4))).is_err());
    }

    #[test]
    fn mem_store_insert_field() {
        let dims = Dims3::cube(8);
        let field =
            VolumeField::from_function(dims, &|x: f64, _y: f64, _z: f64, _t: f64| x as f32, 0.0);
        let layout = BrickLayout::new(dims, Dims3::cube(4));
        let store = MemBlockStore::new();
        store.insert_field(&layout, &field, 0, 0);
        assert_eq!(store.len(), layout.num_blocks());
        let id = layout.block_at(1, 1, 1);
        assert_eq!(
            store.read_block(BlockKey::scalar(id)).unwrap(),
            field.extract_block(&layout, id)
        );
    }

    #[test]
    fn bit_rot_in_raw_frame_surfaces_as_invalid_data() {
        let dims = Dims3::new(4, 2, 1);
        let data: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let buf = encode_block(dims, &data);
        assert!(decode_block(&buf).is_ok());
        // Flip one payload bit: dims and length stay plausible, only the
        // checksum can catch it.
        let mut rotted = buf.clone();
        let last = rotted.len() - 1;
        rotted[last] ^= 0x40;
        let err = decode_block(&rotted).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("checksum"), "got: {err}");
    }

    /// The dims sit outside the CRC: dims whose product overflows must be
    /// `InvalidData`, not an overflow panic.
    #[test]
    fn overflowing_dims_are_invalid_data() {
        let mut buf = encode_block(Dims3::new(3, 1, 1), &[1.0, 2.0, 3.0]);
        buf[6..18].fill(0xFF);
        let err = decode_block(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("overflow"), "got: {err}");
    }

    /// Dims the payload cannot hold must be refused before anything is
    /// sized from the claim: a v3 frame holds exactly `len / 4` voxels.
    #[test]
    fn dims_the_payload_cannot_hold_are_invalid_data() {
        let mut raw = encode_block(Dims3::new(2, 1, 1), &[1.0, 2.0]);
        raw[6..10].copy_from_slice(&(1u32 << 30).to_le_bytes());
        assert_eq!(decode_block(&raw).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    /// A v4 frame (the retired codec layout: a codec tag, dims, payload
    /// length and CRC) is refused by its version before anything is read
    /// or sized from its dims, here a claim of 2^34 voxels: a 64 GiB
    /// allocation failure aborts the process, which no supervisor can catch.
    #[test]
    fn v4_frame_is_refused_before_its_dims_are_read() {
        let payload = [0u8; 8];
        let mut buf = MAGIC.to_vec();
        put::<u16>(&mut buf, 4);
        put::<u8>(&mut buf, 1);
        for n in [1u32 << 20, 1 << 10, 1 << 4] {
            put::<u32>(&mut buf, n);
        }
        put::<u32>(&mut buf, payload.len() as u32);
        put::<u32>(&mut buf, crate::checksum::crc32(&payload));
        buf.extend_from_slice(&payload);
        let err = decode_block(&buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("unsupported block version"), "got: {err}");
    }

    #[test]
    fn block_key_ordering_is_stable() {
        let a = BlockKey::new(0, 0, BlockId(1));
        let b = BlockKey::new(0, 1, BlockId(0));
        let c = BlockKey::new(1, 0, BlockId(0));
        assert!(a < b && b < c);
    }
}
