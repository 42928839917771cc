//! Integration of the real-data pipeline: disk block store → fetch engine
//! → partially resident bricked renderer → analytics.

use std::sync::Arc;
use viz_appaware::core::{visible_blocks, ImportanceTable};
use viz_appaware::fetch::{BlockPool, FetchConfig, FetchEngine};
use viz_appaware::geom::angle::deg_to_rad;
use viz_appaware::geom::{CameraPose, SphericalCoord, Vec3};
use viz_appaware::render::{
    frame_working_set, region_histogram, render, BrickedSource, FieldSource, RenderConfig,
    TransferFunction,
};
use viz_appaware::volume::{
    BlockId, BlockKey, BlockSource, BrickLayout, DatasetKind, DatasetSpec, DiskBlockStore,
    MemBlockStore,
};

fn pose(d: f64) -> CameraPose {
    let sc = SphericalCoord { radius: d, theta: deg_to_rad(80.0), phi: deg_to_rad(20.0) };
    CameraPose::new(sc.to_cartesian(), Vec3::ZERO, deg_to_rad(20.0))
}

#[test]
fn disk_store_prefetch_and_render_roundtrip() {
    let dir = std::env::temp_dir().join(format!("viz_it_render_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 9); // 64³
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 128);
    let store = Arc::new(DiskBlockStore::open(&dir).unwrap());
    store.write_field(&layout, &field, 0, 0).unwrap();

    // Prefetch the frame's working set through one background worker.
    let pool = Arc::new(BlockPool::new());
    let engine = FetchEngine::spawn(
        store.clone() as Arc<dyn BlockSource>,
        pool.clone(),
        FetchConfig { workers: 1, ..FetchConfig::default() },
    );
    let p = pose(2.5);
    let ws = frame_working_set(&p, &layout, &RenderConfig::preview(48, 48));
    assert!(!ws.is_empty());
    for &b in &ws {
        assert!(engine.prefetch(BlockKey::scalar(b), 0.0), "prefetch of block {b} dropped");
    }
    engine.sync();
    for &b in &ws {
        assert!(pool.contains(BlockKey::scalar(b)), "block {b} not prefetched");
    }

    // Rendering through the pool must match rendering the full field except
    // where non-resident blocks clip samples — compare against full render
    // only on the resident working set by loading everything.
    for b in layout.block_ids() {
        if !pool.contains(BlockKey::scalar(b)) {
            assert!(engine.prefetch(BlockKey::scalar(b), 0.0), "prefetch of block {b} dropped");
        }
    }
    engine.sync();
    assert_eq!(engine.shutdown().completed, layout.num_blocks() as u64);

    let tf = TransferFunction::heat(field.min_max());
    let rc = RenderConfig::preview(48, 48);
    let lookup = |id: BlockId| pool.get(BlockKey::scalar(id));
    let bricked = BrickedSource::new(&layout, &lookup);
    let img_bricked = render(&bricked, &p, &tf, &rc);
    let full = FieldSource::new(&field, &layout);
    let img_full = render(&full, &p, &tf, &rc);

    // Pixel-level agreement (same data, same sampling path).
    let mut max_diff = 0.0f32;
    for y in 0..48 {
        for x in 0..48 {
            let a = img_bricked.get(x, y);
            let b = img_full.get(x, y);
            for k in 0..3 {
                max_diff = max_diff.max((a[k] - b[k]).abs());
            }
        }
    }
    assert!(max_diff < 1e-4, "bricked render diverged: {max_diff}");
    assert!(img_full.mean_luminance() > 0.01, "ball should be visible");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn partial_residency_changes_frame_and_empty_pool_is_background() {
    let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 9);
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 128);
    let store = MemBlockStore::new();
    store.insert_field(&layout, &field, 0, 0);

    let p = pose(2.5);
    let tf = TransferFunction::heat(field.min_max());
    let rc = RenderConfig::preview(32, 32);

    // Load only half the working set.
    let ws = visible_blocks(&p, &layout);
    let pool = BlockPool::new();
    for &b in ws.iter().take(ws.len() / 2) {
        pool.insert(BlockKey::scalar(b), store.read_block(BlockKey::scalar(b)).unwrap());
    }
    let lookup_half = |id: BlockId| pool.get(BlockKey::scalar(id));
    let src_half = BrickedSource::new(&layout, &lookup_half);
    let img_half = render(&src_half, &p, &tf, &rc);

    // Then the full set.
    for &b in &ws {
        if !pool.contains(BlockKey::scalar(b)) {
            pool.insert(BlockKey::scalar(b), store.read_block(BlockKey::scalar(b)).unwrap());
        }
    }
    let lookup_all = |id: BlockId| pool.get(BlockKey::scalar(id));
    let src_all = BrickedSource::new(&layout, &lookup_all);
    let img_all = render(&src_all, &p, &tf, &rc);

    // Missing occluders can brighten or darken individual pixels (front-
    // to-back compositing), but the image must change, stay finite, and an
    // empty pool must render pure background.
    assert_ne!(img_half, img_all, "partial residency should alter the frame");
    let empty = BlockPool::new();
    let lookup_none = |id: BlockId| empty.get(BlockKey::scalar(id));
    let src_none = BrickedSource::new(&layout, &lookup_none);
    let img_none = render(&src_none, &p, &tf, &rc);
    assert_eq!(img_none.mean_luminance(), 0.0, "empty pool must render background only");
}

#[test]
fn importance_guides_which_blocks_matter_for_rendering() {
    // Blocks with zero entropy (constant, fully ambient) contribute nothing
    // to a render with a TF that maps the ambient value to transparent —
    // the physical basis of Observation 2.
    let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 9);
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 128);
    let importance = ImportanceTable::from_field(&layout, &field, 64);

    let store = MemBlockStore::new();
    store.insert_field(&layout, &field, 0, 0);
    let p = pose(2.5);
    let tf = TransferFunction::heat(field.min_max());
    let rc = RenderConfig::preview(32, 32);

    // Render with every block vs. only blocks of entropy > 0.
    let pool_all = BlockPool::new();
    let pool_important = BlockPool::new();
    for b in layout.block_ids() {
        let data = store.read_block(BlockKey::scalar(b)).unwrap();
        pool_all.insert(BlockKey::scalar(b), data.clone());
        if importance.entropy(b) > 1e-9 {
            pool_important.insert(BlockKey::scalar(b), data);
        }
    }
    assert!(pool_important.len() < pool_all.len(), "some blocks must be ambient");

    let la = |id: BlockId| pool_all.get(BlockKey::scalar(id));
    let li = |id: BlockId| pool_important.get(BlockKey::scalar(id));
    let sa = BrickedSource::new(&layout, &la);
    let si = BrickedSource::new(&layout, &li);
    let img_a = render(&sa, &p, &tf, &rc);
    let img_i = render(&si, &p, &tf, &rc);
    let diff = (img_a.mean_luminance() - img_i.mean_luminance()).abs();
    assert!(diff < 0.02, "dropping zero-entropy blocks changed the image by {diff}");
}

#[test]
fn region_histogram_over_visible_blocks_matches_direct() {
    let spec = DatasetSpec::new(DatasetKind::LiftedMixFrac, 16, 4);
    let field = spec.materialize(0, 0.0);
    let layout = BrickLayout::with_target_blocks(field.dims, 64);
    let p = pose(2.2);
    let vis = visible_blocks(&p, &layout);
    let blocks: Vec<Vec<f32>> = vis.iter().map(|&b| field.extract_block(&layout, b)).collect();
    let slices: Vec<&[f32]> = blocks.iter().map(|b| b.as_slice()).collect();
    let (lo, hi) = field.min_max();
    let h = region_histogram(&slices, (lo, hi), 32);
    let expect: u64 = blocks.iter().map(|b| b.len() as u64).sum();
    assert_eq!(h.total, expect);
}
