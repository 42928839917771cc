//! `scene-rr`: the one dataset and pair of tables every workload runs on.
//! Building it is the part of set-up the workloads share.

use crate::adapter::{
    BlockKey, BrickLayout, DatasetKind, DatasetSpec, DiskBlockStore, ImportanceTable, RadiusModel,
    RadiusRule, SamplingConfig, VisibleTable, VolumeField,
};
use crate::poses::VIEW_ANGLE_DEG;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// `lifted_rr` at a quarter of Table I's resolution: 200x200x100 f32, 16 MB.
const DATASET_SCALE: usize = 4;
/// The dataset is fixed; `--seed` varies the camera paths only.
const DATASET_SEED: u64 = 7;
/// Fig. 11's operating point, about 16 KB a block.
const TARGET_BLOCKS: usize = 1024;
const TABLE_SAMPLES: usize = 8640;
const TABLE_DOMAIN: (f64, f64) = (2.0, 3.2);
const ENTROPY_BINS: usize = 64;
/// Cache ratio of the radius model and of the simulated hierarchy.
pub const CACHE_RATIO: f64 = 0.5;
/// sigma admits the more important half of the blocks to prefetch.
const SIGMA_FRACTION: f64 = 0.5;

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub write_s: f64,
    pub importance_s: f64,
    pub table_s: f64,
}

pub struct Scene {
    pub layout: BrickLayout,
    pub field: VolumeField,
    pub visible: Arc<VisibleTable>,
    pub importance: Arc<ImportanceTable>,
    pub sigma: f64,
    /// [`fingerprint`] of every block's payload, by block id.
    pub fingerprints: Vec<u64>,
    pub times: SetupTimes,
}

impl Scene {
    /// Generate the field and build `T_important` and `T_visible`.
    pub fn build() -> Scene {
        let mut times = SetupTimes::default();

        let t = Instant::now();
        let field = DatasetSpec::new(DatasetKind::LiftedRr, DATASET_SCALE, DATASET_SEED)
            .materialize(0, 0.0);
        let layout = BrickLayout::with_target_blocks(field.dims, TARGET_BLOCKS);
        let fingerprints =
            layout.block_ids().map(|id| fingerprint(&field.extract_block(&layout, id))).collect();
        times.generate_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let importance = ImportanceTable::from_field(&layout, &field, ENTROPY_BINS);
        let sigma = importance.sigma_for_fraction(SIGMA_FRACTION);
        times.importance_s = t.elapsed().as_secs_f64();

        let t = Instant::now();
        let angle = VIEW_ANGLE_DEG.to_radians();
        let sampling = SamplingConfig::paper_default(TABLE_DOMAIN.0, TABLE_DOMAIN.1, angle)
            .with_target_samples(TABLE_SAMPLES);
        let rule = RadiusRule::Optimal(RadiusModel::new(CACHE_RATIO, angle));
        let visible = VisibleTable::build(sampling, &layout, rule, None);
        times.table_s = t.elapsed().as_secs_f64();

        Scene {
            layout,
            field,
            visible: Arc::new(visible),
            importance: Arc::new(importance),
            sigma,
            fingerprints,
            times,
        }
    }

    /// Write the field as block files under `dir` (the program's ingest
    /// path: two `fsync`s a block) and record how long that took.
    pub fn write_dataset(&mut self, dir: &Path) -> std::io::Result<()> {
        let t = Instant::now();
        let _ = std::fs::remove_dir_all(dir);
        DiskBlockStore::open(dir)?.write_field(&self.layout, &self.field, 0, 0)?;
        self.times.write_s = t.elapsed().as_secs_f64();
        Ok(())
    }

    /// Whether `data` is the payload of `key`'s block as generated.
    pub fn payload_matches(&self, key: BlockKey, data: &[f32]) -> bool {
        self.fingerprints.get(key.block.index()) == Some(&fingerprint(data))
    }
}

/// A position-weighted 64-bit sum over the payload's bit patterns. Checked
/// on every payload of every frame, so it has to cost far less than the
/// frame: the program's byte-wise `crc32` over a frame's ~2 MB would take
/// as long as the fetch it verifies.
pub fn fingerprint(data: &[f32]) -> u64 {
    let (mut a, mut b) = (0u64, 0u64);
    for v in data {
        a = a.wrapping_add(u64::from(v.to_bits()));
        b = b.wrapping_add(a);
    }
    a ^ b.rotate_left(32) ^ data.len() as u64
}
