//! # viz-volume — volumetric data substrate
//!
//! Bricked volumes, synthetic dataset generators standing in for the
//! paper's proprietary simulation data (Table I), per-block statistics
//! (the Shannon-entropy importance measure of Eq. 2), and an on-disk block
//! store used as the slow end of the memory hierarchy.
//!
//! - `dims`, `layout` — voxel grids and the uniform block partition.
//! - `bvh` — the cached per-layout spatial index accelerating Eq. 1 scans.
//! - `field` — materialized scalar fields and procedural generation.
//! - `noise` — seeded value noise / fBm used by the generators.
//! - `datasets` — the four Table I datasets as procedural stand-ins.
//! - `stats` — histograms and block entropy.
//! - [`store`] — the on-disk block store (one raw, CRC-framed `VBLK` v3
//!   file per block) and an in-memory store.
//! - [`le`] — little-endian field I/O shared by the framed binary codecs.
//!
//! # Example
//!
//! ```
//! use viz_volume::{BlockStats, BrickLayout, DatasetKind, DatasetSpec, Dims3};
//!
//! // A miniature 3d_ball (paper scale / 32 = 32^3), split into 8 blocks.
//! let spec = DatasetSpec::new(DatasetKind::Ball3d, 32, 7);
//! let field = spec.materialize(0, 0.0);
//! let layout = BrickLayout::new(field.dims, Dims3::cube(16));
//! assert_eq!(layout.num_blocks(), 8);
//!
//! // Per-block Shannon entropy (Eq. 2) over the global value range:
//! let (lo, hi) = field.min_max();
//! let id = layout.block_at(0, 0, 0);
//! let stats = BlockStats::compute(&field.extract_block(&layout, id), lo, hi, 64);
//! assert!(stats.entropy >= 0.0);
//! ```

#![warn(missing_docs)]

mod bvh;
pub mod checksum;
mod datasets;
mod dims;
mod field;
mod layout;
pub mod le;
mod noise;
mod stats;
pub mod store;

pub use bvh::BlockBvh;
pub use checksum::crc32;
pub use datasets::{DatasetKind, DatasetSpec};
pub use dims::Dims3;
pub use field::{ScalarFunction, VolumeField};
pub use layout::{BlockId, BrickLayout};
pub use stats::{BlockStats, Histogram};
pub use store::{BlockKey, BlockSource, DiskBlockStore, MemBlockStore};
