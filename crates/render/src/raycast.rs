//! CPU ray-casting volume renderer.
//!
//! Front-to-back alpha compositing with trilinear reconstruction, parallel
//! over image rows. The renderer samples through a [`SampleSource`], which
//! either wraps a fully materialized field or a bricked, partially resident
//! volume — the latter is how the out-of-core examples render only the
//! blocks the cache holds (missing blocks contribute nothing, exactly like
//! an out-of-core renderer skipping unloaded bricks).
//!
//! Samples along one ray are spatially coherent, so a source may keep
//! per-ray state: `trace` makes one [`SampleSource::Cursor`] per ray and
//! hands it to every sample of that ray. The bricked source remembers the
//! brick the ray is in there and pays for a brick when the ray enters it,
//! not at every sample (see [`crate::bricked`]). Sample positions do not
//! depend on the source: `t0 + step/2`, then `t += step`.
//!
//! # Arithmetic per sample
//!
//! Compositing's products — `w = a·(1 − α)` and `color += c·w` — go through
//! the crate's exact multiply (`exact.rs`), as do the transfer
//! function's divisions and lerp. A subnormal sample (43 % of a benchmark
//! frame's samples) yields subnormal opacities and weights, and every
//! native `mulss` on one costs a ~60 ns x86 microcode assist. The helper
//! computes every product exactly in `f64` and rounds once, with no branch
//! on its operands, so it returns the native operator's bits and images are
//! unchanged to the bit. Sums, differences, `max` and the `f64` sampling
//! arithmetic take no assist and stay native, as does the per-ray blend
//! over the background.

use crate::exact::mul;
use crate::image::Image;
use crate::tf::{Rgba, TransferFunction};
use viz_geom::{par, CameraPose, Ray, RayGenerator, Vec3};
use viz_volume::{BrickLayout, VolumeField};

/// Source of scalar samples in *voxel* coordinates.
pub trait SampleSource: Sync {
    /// Per-ray state carried from one sample to the next. The renderer
    /// starts every ray with `Cursor::default()`; the value of a sample
    /// never depends on the cursor, only its cost does.
    type Cursor: Default;

    /// Trilinear sample at fractional voxel coordinates, `None` when the
    /// containing block is not resident.
    fn sample(&self, cursor: &mut Self::Cursor, x: f64, y: f64, z: f64) -> Option<f32>;

    /// The brick layout (for bounds and coordinate transforms).
    fn layout(&self) -> &BrickLayout;
}

/// Sample source over a fully materialized volume.
pub struct FieldSource<'a> {
    field: &'a VolumeField,
    layout: &'a BrickLayout,
}

impl<'a> FieldSource<'a> {
    /// Wrap a field and its layout (dims must match).
    pub fn new(field: &'a VolumeField, layout: &'a BrickLayout) -> Self {
        assert_eq!(field.dims, layout.volume, "field/layout mismatch");
        FieldSource { field, layout }
    }
}

impl SampleSource for FieldSource<'_> {
    type Cursor = ();

    fn sample(&self, _cursor: &mut (), x: f64, y: f64, z: f64) -> Option<f32> {
        Some(self.field.sample_trilinear(x, y, z))
    }

    fn layout(&self) -> &BrickLayout {
        self.layout
    }
}

/// How samples along a ray combine into a pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RenderMode {
    /// Front-to-back alpha compositing (volume rendering).
    #[default]
    Composite,
    /// Maximum-intensity projection: the brightest sample wins, colored
    /// through the transfer function. Standard for angiography-style views
    /// and a cheap structural overview.
    Mip,
}

/// A ray stops compositing once its accumulated alpha reaches this.
const EARLY_TERMINATION: f32 = 0.98;

/// Renderer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenderConfig {
    /// Output image width.
    pub width: usize,
    /// Output image height.
    pub height: usize,
    /// Step size along the ray in world units (volume edge = 2).
    pub step: f64,
    /// Background color.
    pub background: Rgba,
    /// Sample combination rule.
    pub mode: RenderMode,
}

impl RenderConfig {
    /// A fast preview configuration (compositing).
    pub fn preview(width: usize, height: usize) -> Self {
        RenderConfig {
            width,
            height,
            step: 0.01,
            background: Rgba::TRANSPARENT,
            mode: RenderMode::Composite,
        }
    }

    /// Switch to maximum-intensity projection.
    pub fn mip(mut self) -> Self {
        self.mode = RenderMode::Mip;
        self
    }
}

/// Render one frame.
///
/// # Panics
/// When `config.step` is not a positive finite number: the march advances
/// by `step`, so it would never leave the volume.
pub fn render<S: SampleSource>(
    source: &S,
    pose: &CameraPose,
    tf: &TransferFunction,
    config: &RenderConfig,
) -> Image {
    assert!(
        config.step.is_finite() && config.step > 0.0,
        "RenderConfig::step must be positive and finite, got {}",
        config.step
    );
    let pass_t0 = viz_telemetry::start();
    let gen = RayGenerator::new(pose, config.width, config.height);
    let mut img = Image::new(config.width, config.height);
    let bounds = source.layout().world_bounds();
    par::for_each(img.rows_mut().enumerate(), |(py, row)| {
        render_row(source, &gen, tf, config, &bounds, py, row)
    });
    viz_telemetry::span(
        viz_telemetry::EventKind::RenderPass,
        RENDER_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
        (config.width * config.height) as u64,
        pass_t0,
    );
    img
}

/// One image row: a pixel depends only on its own ray, so rows can be
/// rendered in any order, on any thread, to the same bits.
fn render_row<S: SampleSource>(
    source: &S,
    gen: &RayGenerator,
    tf: &TransferFunction,
    config: &RenderConfig,
    bounds: &viz_geom::Aabb,
    py: usize,
    row: &mut [[f32; 3]],
) {
    for (px, out) in row.iter_mut().enumerate() {
        let c = trace(source, &gen.ray(px, py), tf, config, bounds);
        *out = [c.r, c.g, c.b];
    }
}

/// Monotone pass counter: the telemetry span key for [`render`].
static RENDER_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

fn trace<S: SampleSource>(
    source: &S,
    ray: &Ray,
    tf: &TransferFunction,
    config: &RenderConfig,
    bounds: &viz_geom::Aabb,
) -> Rgba {
    let Some((t0, t1)) = ray.intersect_aabb(bounds) else {
        return config.background;
    };
    let layout = source.layout();
    let mut cursor = S::Cursor::default();
    if config.mode == RenderMode::Mip {
        // Maximum-intensity projection: scan for the largest sample.
        let mut best: Option<f32> = None;
        let mut t = t0 + config.step * 0.5;
        while t < t1 {
            let p = ray.at(t);
            let v = layout.world_to_voxel(p);
            if let Some(s) = source.sample(&mut cursor, v.x, v.y, v.z) {
                best = Some(best.map_or(s, |b| b.max(s)));
            }
            t += config.step;
        }
        return match best {
            Some(s) => {
                let c = tf.sample(s);
                // MIP pixels are opaque where any data was seen.
                Rgba::new(c.r, c.g, c.b, 1.0)
            }
            None => config.background,
        };
    }
    let mut color = [0.0f32; 3];
    let mut alpha = 0.0f32;
    // Opacity correction reference: the TF is calibrated for this step.
    let mut t = t0 + config.step * 0.5;
    while t < t1 && alpha < EARLY_TERMINATION {
        let p = ray.at(t);
        let v = layout.world_to_voxel(p);
        if let Some(s) = source.sample(&mut cursor, v.x, v.y, v.z) {
            let c = tf.sample(s);
            if c.a > 0.0 {
                // Front-to-back "over" compositing with premultiplied alpha.
                let w = mul(c.a, 1.0 - alpha);
                color[0] += mul(c.r, w);
                color[1] += mul(c.g, w);
                color[2] += mul(c.b, w);
                alpha += w;
            }
        }
        t += config.step;
    }
    // Composite over the background.
    let bg = config.background;
    let w = bg.a * (1.0 - alpha);
    Rgba::new(color[0] + bg.r * w, color[1] + bg.g * w, color[2] + bg.b * w, alpha + w)
}

/// Blocks whose world bounds the rays of a `config.width × config.height`
/// frame can touch, so callers can demand-load exactly what the next
/// [`render`] needs.
///
/// [`RayGenerator`] shoots a rectangular pyramid, `tan(θ/2)` high and
/// `aspect·tan(θ/2)` wide at unit depth, whose corner rays lie *outside*
/// the pose's Eq. 1 cone (`atan(√2·tan(θ/2)) > θ/2` for a square image).
/// This queries the cone circumscribed about that pyramid, half angle
/// `atan(tan(θ/2)·√(1 + aspect²))`, so the set is a superset of the Eq. 1
/// visible set — 505 against 327 of 1014 blocks for a square 15° frame of
/// the benchmark scene, where rendering from the Eq. 1 set alone left 47
/// touched bricks absent and 80 of 4096 pixels wrong.
pub fn frame_working_set(
    pose: &CameraPose,
    layout: &BrickLayout,
    config: &RenderConfig,
) -> Vec<viz_volume::BlockId> {
    let aspect = config.width as f64 / config.height as f64;
    let half_angle = ((pose.view_angle * 0.5).tan() * (1.0 + aspect * aspect).sqrt()).atan();
    let cone = viz_geom::ConeFrustum::new(pose.position, pose.view_direction(), half_angle);
    layout.block_bvh().visible_blocks(&cone)
}

/// Convenience: orbiting pose at `distance` looking at the layout's center
/// (world origin) with `view_angle` radians.
pub fn orbit_pose(theta_deg: f64, phi_deg: f64, distance: f64, view_angle: f64) -> CameraPose {
    let sc = viz_geom::SphericalCoord {
        radius: distance,
        theta: viz_geom::angle::deg_to_rad(theta_deg),
        phi: viz_geom::angle::deg_to_rad(phi_deg),
    };
    CameraPose::new(sc.to_cartesian(), Vec3::ZERO, view_angle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use viz_geom::angle::deg_to_rad;
    use viz_volume::{DatasetKind, DatasetSpec, Dims3};

    fn ball_setup() -> (VolumeField, BrickLayout) {
        let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 7); // 64³
        let field = spec.materialize(0, 0.0);
        let layout = BrickLayout::new(field.dims, Dims3::cube(16));
        (field, layout)
    }

    #[test]
    fn ball_renders_bright_center_dark_corners() {
        let (field, layout) = ball_setup();
        let src = FieldSource::new(&field, &layout);
        let pose = orbit_pose(90.0, 0.0, 3.0, deg_to_rad(40.0));
        let tf = TransferFunction::heat(field.min_max());
        let img = render(&src, &pose, &tf, &RenderConfig::preview(64, 64));
        // Center pixel passes through the ball: bright.
        let c = img.get(32, 32);
        let lum_c = 0.2126 * c[0] + 0.7152 * c[1] + 0.0722 * c[2];
        // Corner pixel misses or only grazes: dark.
        let k = img.get(0, 0);
        let lum_k = 0.2126 * k[0] + 0.7152 * k[1] + 0.0722 * k[2];
        assert!(lum_c > 0.05, "center too dark: {lum_c}");
        assert!(lum_k < lum_c, "corner {lum_k} >= center {lum_c}");
    }

    /// Rows rendered one after another on this thread (what `par::for_each`
    /// does with one worker) and `render` on this machine's workers give
    /// the same image, bit for bit, in both render modes.
    #[test]
    fn render_matches_the_sequential_row_loop() {
        let (field, layout) = ball_setup();
        let src = FieldSource::new(&field, &layout);
        let pose = orbit_pose(60.0, 20.0, 3.0, deg_to_rad(40.0));
        let tf = TransferFunction::heat(field.min_max());
        for cfg in [RenderConfig::preview(48, 33), RenderConfig::preview(48, 33).mip()] {
            let gen = RayGenerator::new(&pose, cfg.width, cfg.height);
            let bounds = layout.world_bounds();
            let mut sequential = Image::new(cfg.width, cfg.height);
            for (py, row) in sequential.rows_mut().enumerate() {
                render_row(&src, &gen, &tf, &cfg, &bounds, py, row);
            }
            assert!(sequential.mean_luminance() > 0.0, "fixture renders something");
            assert_eq!(render(&src, &pose, &tf, &cfg), sequential);
        }
    }

    #[test]
    fn render_is_deterministic() {
        let (field, layout) = ball_setup();
        let src = FieldSource::new(&field, &layout);
        let pose = orbit_pose(45.0, 30.0, 3.0, deg_to_rad(40.0));
        let tf = TransferFunction::grayscale(field.min_max());
        let cfg = RenderConfig::preview(32, 32);
        let a = render(&src, &pose, &tf, &cfg);
        let b = render(&src, &pose, &tf, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn transparent_tf_gives_background() {
        let (field, layout) = ball_setup();
        let src = FieldSource::new(&field, &layout);
        let pose = orbit_pose(90.0, 0.0, 3.0, deg_to_rad(40.0));
        let tf = TransferFunction::new(
            vec![crate::tf::ControlPoint { x: 0.0, color: Rgba::TRANSPARENT }],
            field.min_max(),
        );
        let mut cfg = RenderConfig::preview(16, 16);
        cfg.background = Rgba::new(0.25, 0.5, 0.75, 1.0);
        let img = render(&src, &pose, &tf, &cfg);
        let p = img.get(8, 8);
        assert!((p[0] - 0.25).abs() < 1e-6);
        assert!((p[2] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn closer_camera_sees_bigger_ball() {
        let (field, layout) = ball_setup();
        let src = FieldSource::new(&field, &layout);
        let tf = TransferFunction::heat(field.min_max());
        let cfg = RenderConfig::preview(48, 48);
        let far = render(&src, &orbit_pose(90.0, 0.0, 4.5, deg_to_rad(40.0)), &tf, &cfg);
        let near = render(&src, &orbit_pose(90.0, 0.0, 2.2, deg_to_rad(40.0)), &tf, &cfg);
        assert!(near.bright_pixels(0.02) > far.bright_pixels(0.02));
    }

    #[test]
    fn mip_mode_is_at_least_as_bright_as_compositing() {
        let (field, layout) = ball_setup();
        let src = FieldSource::new(&field, &layout);
        let pose = orbit_pose(90.0, 0.0, 3.0, deg_to_rad(40.0));
        let tf = TransferFunction::heat(field.min_max());
        let comp = render(&src, &pose, &tf, &RenderConfig::preview(32, 32));
        let mip = render(&src, &pose, &tf, &RenderConfig::preview(32, 32).mip());
        // MIP shows the single brightest sample at full opacity: the image
        // cannot be darker than the composited one on this TF.
        assert!(mip.mean_luminance() >= comp.mean_luminance());
        assert!(mip.bright_pixels(0.1) >= comp.bright_pixels(0.1));
    }

    #[test]
    fn mip_of_empty_region_is_background() {
        let (field, layout) = ball_setup();
        let src = FieldSource::new(&field, &layout);
        // Narrow FOV aimed past the volume corner sees only ambient zeros.
        let pose = orbit_pose(90.0, 0.0, 3.0, deg_to_rad(40.0));
        let tf = TransferFunction::heat(field.min_max());
        let img = render(&src, &pose, &tf, &RenderConfig::preview(16, 16).mip());
        // Corner ray passes outside the ball: zero-valued MIP maps through
        // the heat TF's transparent black -> dark pixel but alpha 1.
        let k = img.get(0, 0);
        assert!(k[0] <= 0.2);
    }

    #[test]
    fn telemetry_records_render_pass_span_with_pixel_count() {
        let (field, layout) = ball_setup();
        let src = FieldSource::new(&field, &layout);
        let pose = orbit_pose(90.0, 0.0, 3.0, deg_to_rad(40.0));
        let tf = TransferFunction::heat(field.min_max());
        viz_telemetry::set_enabled(true);
        let _ = render(&src, &pose, &tf, &RenderConfig::preview(24, 24));
        let trace = viz_telemetry::drain();
        viz_telemetry::set_enabled(false);
        // Concurrent tests may emit too; look for ours by pixel count.
        assert!(
            trace
                .events
                .iter()
                .any(|e| e.kind == viz_telemetry::EventKind::RenderPass && e.arg == 24 * 24),
            "no render_pass span for the 24x24 pass"
        );
    }

    #[test]
    fn frame_working_set_contains_the_eq1_visible_set() {
        let (_, layout) = ball_setup();
        let pose = orbit_pose(90.0, 0.0, 3.0, deg_to_rad(30.0));
        let ws = frame_working_set(&pose, &layout, &RenderConfig::preview(64, 64));
        assert!(ws.len() <= layout.num_blocks());
        let eq1 = layout.block_bvh().visible_blocks(&viz_geom::ConeFrustum::from_pose(&pose));
        assert!(!eq1.is_empty());
        assert!(eq1.iter().all(|b| ws.contains(b)), "circumscribed cone dropped an Eq. 1 block");
        // A wide image needs more than a square one of the same height.
        let wide = frame_working_set(&pose, &layout, &RenderConfig::preview(128, 64));
        assert!(wide.len() >= ws.len());
    }

    #[test]
    fn narrow_fov_touches_fewer_blocks() {
        let (_, layout) = ball_setup();
        let rc = RenderConfig::preview(32, 32);
        let narrow = frame_working_set(&orbit_pose(90.0, 0.0, 3.0, deg_to_rad(10.0)), &layout, &rc);
        let wide = frame_working_set(&orbit_pose(90.0, 0.0, 3.0, deg_to_rad(60.0)), &layout, &rc);
        assert!(narrow.len() < wide.len());
    }

    /// Rendering from exactly `frame_working_set`'s blocks is rendering the
    /// whole field: no ray (not even an image-corner ray, which lies outside
    /// the pose's own cone) touches an absent brick.
    #[test]
    fn frame_working_set_covers_every_ray_of_the_frame() {
        use crate::bricked::{BrickedSource, CountingLookup};
        use viz_volume::BlockId;

        let (field, layout, all) = crate::bricked::tests::lifted();
        let tf = TransferFunction::heat(field.min_max());
        let rc = RenderConfig::preview(64, 64);
        for view_angle_deg in [15.0, 30.0] {
            let pose = orbit_pose(70.0, 35.0, 2.6, deg_to_rad(view_angle_deg));
            let ws = frame_working_set(&pose, layout, &rc);
            assert!(ws.len() < layout.num_blocks(), "{view_angle_deg}°: nothing to leave out");
            let lookup = CountingLookup::new(|id: BlockId| {
                ws.contains(&id).then(|| all[id.index()].clone())
            });
            let img = render(&BrickedSource::new(layout, &lookup), &pose, &tf, &rc);
            let (lookups, misses) = lookup.counts();
            assert!(lookups > 0);
            assert_eq!(misses, 0, "{view_angle_deg}°: rays touched bricks outside the set");
            let full = render(&FieldSource::new(field, layout), &pose, &tf, &rc);
            assert_eq!(img, full, "{view_angle_deg}°");
        }
    }

    /// [`trace`] as it was before the exact helpers, kept verbatim (but
    /// for [`TransferFunction::reference_sample`]) as the reference the ray
    /// march must match bit for bit.
    fn reference_trace<S: SampleSource>(
        source: &S,
        ray: &Ray,
        tf: &TransferFunction,
        config: &RenderConfig,
        bounds: &viz_geom::Aabb,
    ) -> Rgba {
        let Some((t0, t1)) = ray.intersect_aabb(bounds) else {
            return config.background;
        };
        let layout = source.layout();
        let mut cursor = S::Cursor::default();
        if config.mode == RenderMode::Mip {
            let mut best: Option<f32> = None;
            let mut t = t0 + config.step * 0.5;
            while t < t1 {
                let p = ray.at(t);
                let v = layout.world_to_voxel(p);
                if let Some(s) = source.sample(&mut cursor, v.x, v.y, v.z) {
                    best = Some(best.map_or(s, |b| b.max(s)));
                }
                t += config.step;
            }
            return match best {
                Some(s) => {
                    let c = tf.reference_sample(s);
                    Rgba::new(c.r, c.g, c.b, 1.0)
                }
                None => config.background,
            };
        }
        let mut color = [0.0f32; 3];
        let mut alpha = 0.0f32;
        let mut t = t0 + config.step * 0.5;
        while t < t1 && alpha < EARLY_TERMINATION {
            let p = ray.at(t);
            let v = layout.world_to_voxel(p);
            if let Some(s) = source.sample(&mut cursor, v.x, v.y, v.z) {
                let c = tf.reference_sample(s);
                if c.a > 0.0 {
                    let w = c.a * (1.0 - alpha);
                    color[0] += c.r * w;
                    color[1] += c.g * w;
                    color[2] += c.b * w;
                    alpha += w;
                }
            }
            t += config.step;
        }
        let bg = config.background;
        let w = bg.a * (1.0 - alpha);
        Rgba::new(color[0] + bg.r * w, color[1] + bg.g * w, color[2] + bg.b * w, alpha + w)
    }

    /// One frame through [`reference_trace`], row by row.
    fn reference_render<S: SampleSource>(
        source: &S,
        pose: &CameraPose,
        tf: &TransferFunction,
        config: &RenderConfig,
    ) -> Image {
        let gen = RayGenerator::new(pose, config.width, config.height);
        let bounds = source.layout().world_bounds();
        let mut img = Image::new(config.width, config.height);
        for (py, row) in img.rows_mut().enumerate() {
            for (px, out) in row.iter_mut().enumerate() {
                let c = reference_trace(source, &gen.ray(px, py), tf, config, &bounds);
                *out = [c.r, c.g, c.b];
            }
        }
        img
    }

    /// Whole images, bit for bit, against the reference ray march: six
    /// transfer functions × both modes × the benchmark scene and its
    /// negation (negative subnormals) × seeded poses, one inside the
    /// volume (two in a debug build, eight in release) × full and ~70 %
    /// residency.
    #[test]
    fn images_equal_the_reference_ray_march() {
        use crate::bricked::BrickedSource;
        use std::sync::Arc;
        use viz_geom::rng::for_cases;
        use viz_volume::BlockId;

        let (field, layout, bricks) = crate::bricked::tests::lifted();
        let negated: Vec<Arc<Vec<f32>>> =
            bricks.iter().map(|b| Arc::new(b.iter().map(|v| -v).collect())).collect();
        let (lo, hi) = field.min_max();
        let cfg = RenderConfig { step: 0.02, ..RenderConfig::preview(20, 20) };
        let poses = if cfg!(debug_assertions) { 2 } else { 8 };
        let (mut frames, mut lit) = (0, 0);
        for_cases(0x7F_5A3E, poses, |rng, case| {
            // Case 0's camera is inside the volume; the seeded ones may be.
            let pose = match case {
                0 => orbit_pose(80.0, 30.0, 0.4, deg_to_rad(30.0)),
                _ => crate::bricked::tests::random_pose(rng),
            };
            assert!(case > 0 || layout.world_bounds().contains(pose.position));
            let absent: Vec<BlockId> =
                layout.block_ids().filter(|_| rng.next_f64() < 0.3).collect();
            for (sign, data, range) in [("+", bricks, (lo, hi)), ("-", &negated, (-hi, -lo))] {
                for absent in [&[][..], &absent[..]] {
                    let lookup =
                        |id: BlockId| (!absent.contains(&id)).then(|| data[id.index()].clone());
                    let src = BrickedSource::new(layout, &lookup);
                    for (name, tf) in crate::tf::tests::tf_family(range) {
                        for cfg in [cfg, cfg.mip()] {
                            let got = render(&src, &pose, &tf, &cfg);
                            let want = reference_render(&src, &pose, &tf, &cfg);
                            assert_eq!(
                                got,
                                want,
                                "case {case}, {sign}{name}, {} absent, {:?}",
                                absent.len(),
                                cfg.mode
                            );
                            frames += 1;
                            lit += usize::from(got.mean_luminance() > 0.0);
                        }
                    }
                }
            }
        });
        assert!(lit * 10 >= frames * 8, "only {lit} of {frames} frames drew anything");
    }

    /// A NaN-filled brick in a served payload renders as empty space in
    /// both modes instead of panicking a render worker.
    #[test]
    fn nan_brick_renders_finite_pixels() {
        use crate::bricked::BrickedSource;
        use std::sync::Arc;
        use viz_volume::BlockId;

        let (field, layout, bricks) = crate::bricked::tests::lifted();
        let tf = TransferFunction::heat(field.min_max());
        // The whole volume in view, and the brick of its largest voxel gone.
        let pose = orbit_pose(70.0, 35.0, 3.0, deg_to_rad(60.0));
        let (hi, d) = (field.min_max().1, field.dims);
        let peak = field.data().iter().position(|&v| v == hi).unwrap();
        let poisoned = layout.block_of_voxel(peak % d.nx, peak / d.nx % d.ny, peak / (d.nx * d.ny));
        let nan_brick = Arc::new(vec![f32::NAN; bricks[poisoned.index()].len()]);
        let lookup = |id: BlockId| {
            Some(if id == poisoned { nan_brick.clone() } else { bricks[id.index()].clone() })
        };
        let cfg = RenderConfig::preview(32, 32);
        for cfg in [cfg, cfg.mip()] {
            let img = render(&BrickedSource::new(layout, &lookup), &pose, &tf, &cfg);
            let mut pixels = (0..32).flat_map(|y| (0..32).map(move |x| (x, y)));
            assert!(pixels.all(|(x, y)| img.get(x, y).iter().all(|c| c.is_finite())));
            // Compositing shows that rays sampled the brick; MIP samples the
            // same rays to their end, where `max` passes over a NaN.
            if cfg.mode == RenderMode::Composite {
                let clean = |id: BlockId| Some(bricks[id.index()].clone());
                let reference = render(&BrickedSource::new(layout, &clean), &pose, &tf, &cfg);
                assert_ne!(img, reference, "no ray reached the NaN brick");
            }
        }
    }

    /// The first `stages` stages of [`trace`]'s compositing march along
    /// `ray`, for at most `n` samples: 1, the ray and `world_to_voxel`;
    /// 2, + the sampler; 3, + the transfer function; 4, + compositing.
    /// Returns the samples taken and a colour every stage's work feeds: at
    /// stage 4, what `trace` returns over a transparent background.
    fn march_stages<S: SampleSource>(
        source: &S,
        ray: &Ray,
        tf: &TransferFunction,
        step: f64,
        stages: usize,
        n: usize,
    ) -> (usize, Rgba) {
        let layout = source.layout();
        let Some((t0, t1)) = ray.intersect_aabb(&layout.world_bounds()) else {
            return (0, Rgba::TRANSPARENT);
        };
        let mut cursor = S::Cursor::default();
        let (mut taken, mut acc) = (0, 0.0f32);
        let (mut color, mut alpha) = ([0.0f32; 3], 0.0f32);
        let mut t = t0 + step * 0.5;
        while t < t1 && taken < n && alpha < EARLY_TERMINATION {
            let v = layout.world_to_voxel(ray.at(t));
            taken += 1;
            t += step;
            if stages == 1 {
                acc += (v.x + v.y + v.z) as f32;
                continue;
            }
            let Some(s) = source.sample(&mut cursor, v.x, v.y, v.z) else { continue };
            if stages == 2 {
                acc += s;
                continue;
            }
            let c = tf.sample(s);
            if stages == 3 {
                acc += c.a;
            } else if c.a > 0.0 {
                let w = mul(c.a, 1.0 - alpha);
                color[0] += mul(c.r, w);
                color[1] += mul(c.g, w);
                color[2] += mul(c.b, w);
                alpha += w;
            }
        }
        (taken, Rgba::new(color[0], color[1], color[2], alpha + acc))
    }

    /// Where a sample's time goes, on this thread: the rays of 60 orbit
    /// frames of the benchmark scene (32 × 32 pixels, step 0.02, 8° cone),
    /// marched once per stage of [`march_stages`] over the samples
    /// [`trace`] takes, printing ns a sample for each (the least of five
    /// passes). Run it on an idle core:
    /// `taskset -c 0 cargo test --release -p viz-render --lib sample_cost -- --ignored --nocapture`.
    #[test]
    #[ignore = "timing: run it in release, on an idle core, with --nocapture"]
    fn sample_cost_by_stage() {
        use crate::bricked::BrickedSource;
        use std::hint::black_box;
        use std::time::Instant;
        use viz_volume::BlockId;

        let (field, layout, bricks) = crate::bricked::tests::lifted();
        let tf = TransferFunction::heat(field.min_max());
        let cfg = RenderConfig { step: 0.02, ..RenderConfig::preview(32, 32) };
        let mut rays = Vec::new();
        for k in 0..60 {
            let pose = orbit_pose(70.0, 5.0 * f64::from(k), 2.7, deg_to_rad(8.0));
            let gen = RayGenerator::new(&pose, cfg.width, cfg.height);
            for py in 0..cfg.height {
                rays.extend((0..cfg.width).map(|px| gen.ray(px, py)));
            }
        }
        let lookup = |id: BlockId| Some(bricks[id.index()].clone());
        let src = BrickedSource::new(layout, &lookup);
        let bounds = layout.world_bounds();
        // Stage 4 is `trace` on a transparent background, and gives the
        // sample counts every stage marches.
        let counts: Vec<usize> = rays
            .iter()
            .map(|ray| {
                let (n, c) = march_stages(&src, ray, &tf, cfg.step, 4, usize::MAX);
                assert_eq!(c, trace(&src, ray, &tf, &cfg, &bounds));
                n
            })
            .collect();
        let samples: usize = counts.iter().sum();
        println!("{} rays, {samples} samples", rays.len());
        let mut prev = 0.0;
        for (stages, what) in [
            (1, "ray + world_to_voxel"),
            (2, "+ sampler"),
            (3, "+ transfer function"),
            (4, "+ compositing"),
        ] {
            let best = (0..5)
                .map(|_| {
                    let start = Instant::now();
                    for (ray, &n) in rays.iter().zip(&counts) {
                        black_box(march_stages(&src, ray, &tf, cfg.step, stages, n));
                    }
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            let ns = best * 1e9 / samples as f64;
            println!("{what:<22} {ns:6.1} ns a sample ({:+.1})", ns - prev);
            prev = ns;
        }
    }

    fn render_with_step(step: f64) {
        let (field, layout) = ball_setup();
        let src = FieldSource::new(&field, &layout);
        let pose = orbit_pose(90.0, 0.0, 3.0, deg_to_rad(40.0));
        let tf = TransferFunction::heat(field.min_max());
        render(&src, &pose, &tf, &RenderConfig { step, ..RenderConfig::preview(8, 8) });
    }

    #[test]
    #[should_panic(expected = "step must be positive and finite, got 0")]
    fn zero_step_panics_instead_of_hanging() {
        render_with_step(0.0);
    }

    #[test]
    #[should_panic(expected = "step must be positive and finite, got -0.01")]
    fn negative_step_panics_instead_of_hanging() {
        render_with_step(-0.01);
    }
}
