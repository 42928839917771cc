//! # viz-render — software volume renderer and analytics
//!
//! The rendering and data-dependent analysis side of the visualization
//! pipeline: piecewise-linear transfer functions, a parallel CPU
//! ray-casting renderer over fully or partially resident bricked volumes,
//! and the per-view analytics of the paper's Fig. 3 (region histograms and
//! variable correlation matrices).
//!
//! - `tf` — transfer functions (the data-dependent interaction).
//! - `image` — RGB image buffer with PPM output.
//! - `raycast` — front-to-back ray caster, parallel over rows.
//! - `bricked` — sampling through a partially resident block cache.
//! - `analytics` — histograms, correlation matrices, query counting.
//!
//! # Example
//!
//! ```
//! use viz_render::{orbit_pose, render, FieldSource, RenderConfig, TransferFunction};
//! use viz_geom::angle::deg_to_rad;
//! use viz_volume::{BrickLayout, DatasetKind, DatasetSpec, Dims3};
//!
//! let spec = DatasetSpec::new(DatasetKind::Ball3d, 32, 7);
//! let field = spec.materialize(0, 0.0);
//! let layout = BrickLayout::new(field.dims, Dims3::cube(16));
//! let src = FieldSource::new(&field, &layout);
//! let pose = orbit_pose(90.0, 0.0, 3.0, deg_to_rad(40.0));
//! let tf = TransferFunction::heat(field.min_max());
//! let img = render(&src, &pose, &tf, &RenderConfig::preview(32, 32));
//! assert!(img.mean_luminance() > 0.0); // the ball is visible
//! ```

#![warn(missing_docs)]

mod analytics;
mod bricked;
mod exact;
mod image;
mod lanes;
mod raycast;
mod tf;

pub use analytics::{query_count, region_histogram, CorrelationAccumulator};
pub use bricked::{BlockLookup, BrickCursor, BrickedSource, CountingLookup};
pub use image::Image;
pub use raycast::{
    frame_working_set, orbit_pose, render, FieldSource, RenderConfig, RenderMode, SampleSource,
};
pub use tf::{ControlPoint, Rgba, TransferFunction};
