//! Per-block histogram table: O(bins) data-dependent importance updates.
//!
//! The paper's `T_important` is built from per-block Shannon entropy and is
//! computed once. But the *data-dependent* interactions of §III-A change
//! which values matter — a retuned transfer function can make yesterday's
//! ambient range the new region of interest. Rescanning every voxel per TF
//! tweak would defeat interactivity; storing each block's *histogram*
//! (bins × blocks, tiny compared to the data) lets any value-weighted
//! importance be recomputed in O(blocks × bins):
//!
//! - entropy (the paper's measure) falls out directly, and
//! - opacity-weighted importance = Σ_bins p(bin) · weight(bin_center)
//!   re-ranks blocks for *any* transfer function instantly.

use crate::importance::ImportanceTable;
use viz_geom::par;
use viz_volume::{BlockId, BrickLayout, Histogram, VolumeField};

/// Per-block histograms over a shared global value range.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockHistogramTable {
    /// One histogram per block (shared `lo`/`hi`/bin count).
    histograms: Vec<Histogram>,
    /// Global value range the bins span.
    pub range: (f32, f32),
    /// Bins per histogram.
    pub bins: usize,
}

impl BlockHistogramTable {
    /// Build from a materialized field (parallel over blocks); bins span
    /// the field's global min/max.
    pub fn from_field(layout: &BrickLayout, field: &VolumeField, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert_eq!(layout.volume, field.dims, "layout does not match field");
        let (lo, hi) = field.min_max();
        let ids: Vec<BlockId> = layout.block_ids().collect();
        let histograms = par::map(ids.len(), |i| {
            let mut h = Histogram::new(lo, hi, bins);
            h.add_all(&field.extract_block(layout, ids[i]));
            h
        });
        BlockHistogramTable { histograms, range: (lo, hi), bins }
    }

    /// Reassemble a table from its parts. Every histogram must share
    /// `range` and `bins`; errors otherwise.
    pub fn from_parts(
        histograms: Vec<Histogram>,
        range: (f32, f32),
        bins: usize,
    ) -> Result<Self, String> {
        if bins == 0 {
            return Err("need at least one bin".into());
        }
        for (i, h) in histograms.iter().enumerate() {
            if h.counts.len() != bins {
                return Err(format!("block {i}: {} bins, expected {bins}", h.counts.len()));
            }
            if (h.lo, h.hi) != range {
                return Err(format!("block {i}: range mismatch"));
            }
        }
        Ok(BlockHistogramTable { histograms, range, bins })
    }

    /// Number of blocks covered.
    pub fn len(&self) -> usize {
        self.histograms.len()
    }

    /// `true` when no blocks are covered.
    pub fn is_empty(&self) -> bool {
        self.histograms.is_empty()
    }

    /// A block's histogram.
    pub fn histogram(&self, b: BlockId) -> &Histogram {
        &self.histograms[b.index()]
    }

    /// The paper's entropy importance, derived without touching voxel data.
    pub fn entropy_importance(&self) -> ImportanceTable {
        ImportanceTable::from_entropies(
            self.histograms.iter().map(|h| h.entropy()).collect(),
            self.bins,
        )
    }

    /// Importance under an arbitrary per-value weight (e.g. a transfer
    /// function's opacity): block score = Σ p(bin) · weight(bin center).
    /// O(blocks × bins) — this is the instant data-dependent re-rank.
    pub fn weighted_importance<W: Fn(f32) -> f32>(&self, weight: W) -> ImportanceTable {
        let (lo, hi) = self.range;
        let span = (hi - lo).max(f32::MIN_POSITIVE);
        let centers: Vec<f32> =
            (0..self.bins).map(|i| lo + span * (i as f32 + 0.5) / self.bins as f32).collect();
        let weights: Vec<f64> = centers.iter().map(|&c| weight(c) as f64).collect();
        let scores: Vec<f64> = self
            .histograms
            .iter()
            .map(|h| {
                let total = h.total.max(1) as f64;
                h.counts.iter().zip(&weights).map(|(&c, &w)| (c as f64 / total) * w).sum()
            })
            .collect();
        ImportanceTable::from_entropies(scores, self.bins)
    }

    /// Approximate memory footprint (the pre-processing cost this table
    /// trades for instant re-ranking).
    pub fn approx_bytes(&self) -> usize {
        self.histograms.len() * (self.bins * 8 + 24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_volume::{DatasetKind, DatasetSpec, Dims3};

    fn setup() -> (BrickLayout, VolumeField, BlockHistogramTable) {
        let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 5); // 64³
        let field = spec.materialize(0, 0.0);
        let layout = BrickLayout::new(field.dims, Dims3::cube(16));
        let table = BlockHistogramTable::from_field(&layout, &field, 64);
        (layout, field, table)
    }

    #[test]
    fn entropy_importance_matches_direct_computation() {
        let (layout, field, table) = setup();
        let direct = ImportanceTable::from_field(&layout, &field, 64);
        let derived = table.entropy_importance();
        for id in layout.block_ids() {
            assert!((direct.entropy(id) - derived.entropy(id)).abs() < 1e-9, "block {id}");
        }
    }

    #[test]
    fn uniform_weight_ranks_by_occupancy_only() {
        let (_, _, table) = setup();
        let t = table.weighted_importance(|_| 1.0);
        // Every block with data scores exactly 1.
        for e in t.ranked() {
            assert!((e.entropy - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn opacity_peak_promotes_blocks_containing_that_value() {
        let (layout, field, table) = setup();
        let (lo, hi) = field.min_max();
        // Weight concentrated on high values: blocks containing the ball
        // core should out-rank ambient (all-zero) blocks.
        let thresh = lo + 0.6 * (hi - lo);
        let t = table.weighted_importance(move |v| if v > thresh { 1.0 } else { 0.0 });
        let corner = layout.block_at(0, 0, 0); // ambient
        assert_eq!(t.entropy(corner), 0.0);
        assert!(t.ranked()[0].entropy > 0.0);
    }

    #[test]
    fn retuning_weight_changes_ranking() {
        let (_, field, table) = setup();
        let (lo, hi) = field.min_max();
        let mid = lo + 0.5 * (hi - lo);
        let low_tf = table.weighted_importance(move |v| if v <= mid { 1.0 } else { 0.0 });
        let high_tf = table.weighted_importance(move |v| if v > mid { 1.0 } else { 0.0 });
        // Complementary weights ⇒ complementary scores (sum to occupancy 1).
        for i in 0..table.len() {
            let b = BlockId(i as u32);
            let s = low_tf.entropy(b) + high_tf.entropy(b);
            assert!((s - 1.0).abs() < 1e-9, "block {b}: {s}");
        }
        // And the top-ranked block differs.
        assert_ne!(low_tf.ranked()[0].block, high_tf.ranked()[0].block);
    }

    #[test]
    fn global_histogram_sums_blocks() {
        // Every voxel lands in exactly one block's histogram.
        let (_, field, table) = setup();
        let total: u64 = (0..table.len()).map(|i| table.histogram(BlockId(i as u32)).total).sum();
        assert_eq!(total as usize, field.dims.count());
    }

    #[test]
    fn footprint_is_small_relative_to_data() {
        let (_, field, table) = setup();
        assert!(table.approx_bytes() < field.dims.bytes_f32() / 4);
    }

    #[test]
    fn from_parts_rejects_mismatched_histograms() {
        let (_, _, table) = setup();
        let mut odd = vec![table.histogram(BlockId(0)).clone()];
        odd.push(viz_volume::Histogram::new(0.0, 1.0, 7)); // wrong bin count
        assert!(BlockHistogramTable::from_parts(odd, table.range, table.bins).is_err());
        assert!(BlockHistogramTable::from_parts(Vec::new(), (0.0, 1.0), 0).is_err());
    }
}
