//! # viz-adapt — the closed-loop adaptive control plane
//!
//! The serve layer's admission watermarks are startup constants, while
//! the telemetry crate records hit rates, latencies and sheds that nothing
//! consumes online. This crate closes that loop: it periodically snapshots
//! live signals (cheaply — the gauge/counter plane, never the consuming
//! event rings) and drives one actuator through a small, individually
//! testable controller:
//!
//! - [`LadderTuner`] — one scale factor over the serve shed ladder's
//!   prefetch watermarks and per-client quotas, integrated against a
//!   demand-p99 SLO. Demand is **never** shed — the ladder only ever
//!   throttles speculation; tightening to zero stops prefetch, not frames.
//!
//! The other live loop, the entropy threshold σ, is per-session: it is
//! driven by [`viz_core::SigmaController`], wired server-side via
//! `Server::attach_adaptive_sigma`. Both are built on
//! [`viz_core::IntegralController`] (log-ratio error, output clamping as
//! anti-windup).
//!
//! [`ControlPlane`] runs the ladder loop over a live [`viz_serve::Server`]:
//! one `tick()` per control period scrapes the wire-counter plane, consumes
//! the demand-RTT window, retunes the ladder, and publishes its own state
//! as gauges (`adapt_*`) so the next `Stats` scrape shows the controller
//! acting — observable by exactly the plane it observes with.

#![warn(missing_docs)]

pub mod ladder;
pub mod plane;
pub mod snapshot;

pub use ladder::{LadderTuner, LadderTunerConfig};
pub use plane::{ControlPlane, ControlPlaneConfig, TickReport};
pub use snapshot::{SignalTracker, Signals};
