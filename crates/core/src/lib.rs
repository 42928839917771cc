//! # viz-core — the application-aware data replacement policy
//!
//! The paper's primary contribution (Yu, Yu, Jiang & Wang, IPPS 2017):
//! prediction of visualization data accesses by camera-position sampling
//! (`T_visible`, Section IV-B), entropy-based block importance
//! (`T_important`, Section IV-C), the optimal vicinal-radius model
//! (Eq. 6, Section V-B2), and the Algorithm 1 I/O optimization engine that
//! pre-loads important blocks, pins the working set, and overlaps
//! prefetching with rendering.
//!
//! - `radius` — the Eq. 6 radius model.
//! - `importance` — `T_important` construction and queries.
//! - `sampling` — camera lattice, `T_visible` build, O(1) nearest lookup.
//! - `session` — Algorithm 1 and the FIFO/LRU baselines over the
//!   simulated hierarchy; per-step and aggregate metrics.
//! - [`degraded`] — per-frame I/O budgets over the real fetch engine:
//!   frames whose demand reads miss their deadline render with resident
//!   blocks only instead of stalling.
//! - `flight` — per-client camera flights: one viewer's pose sequence +
//!   table handles, turned into per-frame demand/prefetch requests for the
//!   serve layer's session registry.
//! - `report` — figure/table emission helpers for the bench harness.
//!
//! # Example — the paper's pipeline end to end
//!
//! ```
//! use viz_core::{
//!     run_session, AppAwareConfig, ImportanceTable, RadiusModel, RadiusRule,
//!     SamplingConfig, SessionConfig, Strategy, VisibleTable,
//! };
//! use viz_geom::angle::deg_to_rad;
//! use viz_geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
//! use viz_volume::{BrickLayout, DatasetKind, DatasetSpec};
//!
//! // Dataset + partition.
//! let spec = DatasetSpec::new(DatasetKind::Ball3d, 32, 7);
//! let field = spec.materialize(0, 0.0);
//! let layout = BrickLayout::with_target_blocks(field.dims, 64);
//!
//! // T_important (Section IV-C) and T_visible (Section IV-B).
//! let importance = ImportanceTable::from_field(&layout, &field, 64);
//! let angle = deg_to_rad(15.0);
//! let sampling = SamplingConfig::paper_default(2.0, 3.2, angle).with_target_samples(256);
//! let t_visible = VisibleTable::build(
//!     sampling,
//!     &layout,
//!     RadiusRule::Optimal(RadiusModel::new(0.25, angle)),
//!     Some((&importance, layout.num_blocks() / 4)),
//! );
//!
//! // Replay an orbit under Algorithm 1.
//! let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.2);
//! let poses = SphericalPath::new(domain, 2.5, 10.0, angle).generate(40);
//! let cfg = SessionConfig::paper(0.5, layout.nominal_block_bytes());
//! let sigma = importance.sigma_for_fraction(0.5);
//! let report = run_session(
//!     &cfg,
//!     &layout,
//!     &Strategy::AppAware(AppAwareConfig::paper(sigma)),
//!     &poses,
//!     Some((&t_visible, &importance)),
//! );
//! assert!(report.miss_rate < 1.0);
//! assert_eq!(report.steps, 40);
//! ```

#![warn(missing_docs)]

pub mod degraded;
mod flight;
mod importance;
pub mod persist;
mod prediction;
mod radius;
mod report;
mod sampling;
mod session;
mod trace;

pub use degraded::{fetch_frame, FrameFetchReport};
pub use flight::{ClientFlight, FrameRequest};
pub use importance::{ImportanceEntry, ImportanceTable};
pub use persist::{load_tables, save_tables};
pub use radius::RadiusModel;
pub use report::{Metric, Row, Table};
pub use sampling::{
    visible_blocks, visible_blocks_brute_force, RadiusRule, SamplingConfig, VisibleTable,
};
pub use session::{
    compute_visibility, demand_trace, run_session, run_session_precomputed, AppAwareConfig,
    PredictorKind, RenderModel, SessionConfig, SessionReport, StepMetrics, Strategy,
};
pub use trace::ReuseProfile;
