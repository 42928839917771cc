//! Per-client flight state for served viewers: one camera path plus the
//! `T_visible` / `T_important` handles that drive it.
//!
//! The paper's tables are built once per dataset, but every *viewer* flies
//! its own path over them. A [`ClientFlight`] packages what one client
//! needs — the pose sequence, the per-step visible sets, and (optionally)
//! shared [`Arc`] handles to the prediction tables — and turns each step
//! into a [`FrameRequest`]: the demand keys the frame cannot render
//! without, plus the entropy-prioritized prefetch Algorithm 1 predicts from
//! the pose being rendered, not the next one. Prediction runs on the client
//! side, next to the renderer: a client replays its flight and sends each
//! frame's keys in a `Fetch`, and the server learns no tables.

use crate::importance::ImportanceTable;
use crate::sampling::VisibleTable;
use crate::session::compute_visibility;
use std::sync::Arc;
use viz_geom::CameraPose;
use viz_volume::{BlockId, BlockKey, BrickLayout};

/// What one frame of a flight asks of the fetch layer.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameRequest {
    /// Step index within the flight (before any rotation is applied).
    pub step: usize,
    /// The flight's generation after this frame: monotone, bumped once per
    /// [`ClientFlight::next_frame`], mirroring the engine's camera-step
    /// cancellation counter but scoped to one client.
    pub generation: u64,
    /// Blocks the frame renders from — fetched at demand priority.
    pub demand: Vec<BlockKey>,
    /// `(key, priority)` speculation: `T_visible`'s prediction for this
    /// step's pose, entropy ≥ σ, at its `T_important` entropy. Empty
    /// without tables and on a flight's last step.
    pub prefetch: Vec<(BlockKey, f64)>,
}

/// One client's replayable camera flight (see module docs).
#[derive(Clone)]
pub struct ClientFlight {
    var: u16,
    time: u16,
    poses: Vec<CameraPose>,
    visible: Vec<Vec<BlockId>>,
    tables: Option<(Arc<VisibleTable>, Arc<ImportanceTable>)>,
    sigma: f64,
    cursor: usize,
    generation: u64,
}

impl ClientFlight {
    /// Build a flight over `layout`, computing each pose's visible set via
    /// the BVH. Attach `tables` to prefetch from `T_visible` predictions
    /// filtered by `T_important` entropy ≥ `sigma` (Algorithm 1's gate);
    /// without tables, the flight prefetches nothing.
    pub fn new(
        layout: &BrickLayout,
        poses: Vec<CameraPose>,
        tables: Option<(Arc<VisibleTable>, Arc<ImportanceTable>)>,
        sigma: f64,
    ) -> Self {
        let visible = compute_visibility(layout, &poses);
        Self::from_visible(poses, visible, tables, sigma)
    }

    /// Build from precomputed per-step visible sets (`visible[i]` pairs
    /// with `poses[i]`). The serve bench shares one visibility computation
    /// across many phase-shifted clients this way.
    pub fn from_visible(
        poses: Vec<CameraPose>,
        visible: Vec<Vec<BlockId>>,
        tables: Option<(Arc<VisibleTable>, Arc<ImportanceTable>)>,
        sigma: f64,
    ) -> Self {
        assert_eq!(poses.len(), visible.len(), "pose/visible length mismatch");
        ClientFlight { var: 0, time: 0, poses, visible, tables, sigma, cursor: 0, generation: 0 }
    }

    /// Address a specific variable/timestep instead of the scalar default.
    pub fn for_variable(mut self, var: u16, time: u16) -> Self {
        self.var = var;
        self.time = time;
        self
    }

    /// Rotate the step order left by `offset` (modulo length): clients
    /// sharing one path but phase-shifted along it, so their demand sets
    /// overlap without being identical per frame.
    pub fn rotated(mut self, offset: usize) -> Self {
        if !self.poses.is_empty() {
            let k = offset % self.poses.len();
            self.poses.rotate_left(k);
            self.visible.rotate_left(k);
        }
        self
    }

    /// Steps in the flight.
    pub fn len(&self) -> usize {
        self.poses.len()
    }

    /// `true` for a zero-step flight.
    pub fn is_empty(&self) -> bool {
        self.poses.is_empty()
    }

    /// Next step [`next_frame`](Self::next_frame) will produce.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Frames produced so far across all replays (never resets).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Restart the flight from step 0 (the generation keeps counting).
    pub fn rewind(&mut self) {
        self.cursor = 0;
    }

    /// Produce the next frame's request, or `None` once the flight ends
    /// (call [`rewind`](Self::rewind) to replay).
    pub fn next_frame(&mut self) -> Option<FrameRequest> {
        let step = self.cursor;
        if step >= self.poses.len() {
            return None;
        }
        self.cursor += 1;
        self.generation += 1;
        let key_of = |id: BlockId| BlockKey::new(self.var, self.time, id);
        let demand: Vec<BlockKey> = self.visible[step].iter().copied().map(key_of).collect();
        let prefetch = match &self.tables {
            Some((tv, ti)) if self.cursor < self.poses.len() => tv
                .predict(&self.poses[step])
                .iter()
                .filter_map(|&id| {
                    let h = ti.entropy(id);
                    (h >= self.sigma).then(|| (key_of(id), h))
                })
                .collect(),
            _ => Vec::new(),
        };
        Some(FrameRequest { step, generation: self.generation, demand, prefetch })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling::{RadiusRule, SamplingConfig};
    use viz_geom::angle::deg_to_rad;
    use viz_geom::{CameraPath, ExplorationDomain, SphericalPath, Vec3};
    use viz_volume::{DatasetKind, DatasetSpec, Dims3};

    fn fixture() -> (BrickLayout, Vec<CameraPose>, Arc<VisibleTable>, Arc<ImportanceTable>) {
        let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 5);
        let field = spec.materialize(0, 0.0);
        let layout = BrickLayout::new(field.dims, Dims3::cube(8));
        let importance = Arc::new(ImportanceTable::from_field(&layout, &field, 32));
        let angle = deg_to_rad(20.0);
        let sampling = SamplingConfig::paper_default(2.0, 3.0, angle).with_target_samples(64);
        let tv = Arc::new(VisibleTable::build(sampling, &layout, RadiusRule::Fixed(0.6), None));
        let domain = ExplorationDomain::new(Vec3::ZERO, 2.0, 3.0);
        let poses = SphericalPath::new(domain, 2.5, 10.0, angle).generate(12);
        (layout, poses, tv, importance)
    }

    #[test]
    fn flight_walks_every_step_then_ends() {
        let (layout, poses, _, _) = fixture();
        let n = poses.len();
        let mut f = ClientFlight::new(&layout, poses, None, 0.0);
        assert_eq!(f.len(), n);
        let mut steps = 0;
        while let Some(req) = f.next_frame() {
            assert_eq!(req.step, steps);
            assert_eq!(req.generation, steps as u64 + 1);
            assert!(!req.demand.is_empty(), "an orbit pose should see blocks");
            steps += 1;
        }
        assert_eq!(steps, n);
        assert!(f.next_frame().is_none());
        f.rewind();
        assert_eq!(f.next_frame().unwrap().step, 0);
        assert_eq!(f.generation(), n as u64 + 1, "generation keeps counting across replays");
    }

    #[test]
    fn untabled_flight_prefetches_nothing() {
        let (layout, poses, tv, ti) = fixture();
        let mut bare = ClientFlight::new(&layout, poses.clone(), None, -1.0);
        let mut tabled = ClientFlight::new(&layout, poses, Some((tv, ti)), -1.0);
        let first = tabled.next_frame().unwrap();
        assert!(!first.prefetch.is_empty(), "the same step prefetches with tables");
        while let Some(req) = bare.next_frame() {
            assert!(req.prefetch.is_empty(), "no tables, no prefetch");
        }
    }

    #[test]
    fn tables_gate_prefetch_by_entropy() {
        let (layout, poses, tv, ti) = fixture();
        let (sigma, tables) = (ti.sigma_for_fraction(0.5), Some((tv.clone(), ti.clone())));
        let mut f = ClientFlight::new(&layout, poses.clone(), tables.clone(), sigma);
        let mut strict = ClientFlight::new(&layout, poses.clone(), tables, f64::INFINITY);
        let mut gated = 0;
        for (k, pose) in poses.iter().enumerate() {
            // Step k predicts from the pose it renders; the last step has
            // no next frame to prefetch for.
            let predicted = if k + 1 < poses.len() { tv.predict(pose) } else { &[] };
            let all = predicted.iter().map(|&b| (BlockKey::scalar(b), ti.entropy(b)));
            let want: Vec<_> = all.filter(|&(_, h)| h >= sigma).collect();
            gated += predicted.len() - want.len();
            assert_eq!(f.next_frame().unwrap().prefetch, want, "step {k}");
            assert!(strict.next_frame().unwrap().prefetch.is_empty(), "infinite sigma");
        }
        assert!(gated > 0, "the median sigma filters some predicted block");
    }

    #[test]
    fn next_pose_does_not_change_this_steps_prefetch() {
        let (layout, poses, tv, ti) = fixture();
        let k = 4;
        let mut moved = poses.clone();
        moved[k + 1] = poses[0];
        assert_ne!(tv.predict(&poses[k + 1]), tv.predict(&moved[k + 1]), "the swap must matter");
        let step_k = |poses: Vec<CameraPose>| {
            let tables = Some((tv.clone(), ti.clone()));
            let mut f = ClientFlight::new(&layout, poses, tables, -1.0);
            (0..k).for_each(|_| drop(f.next_frame()));
            f.next_frame().unwrap().prefetch
        };
        let (a, b) = (step_k(poses), step_k(moved));
        assert!(!a.is_empty());
        assert_eq!(a, b, "step {k} predicts from its own pose, not the next one");
    }

    #[test]
    fn rotation_and_variable_addressing() {
        let (layout, poses, _, _) = fixture();
        let mut expected = ClientFlight::new(&layout, poses, None, 0.0);
        let s0 = expected.clone().rotated(3).for_variable(2, 9).next_frame().unwrap();
        assert!(s0.demand.iter().all(|k| k.var == 2 && k.time == 9));
        (0..3).for_each(|_| drop(expected.next_frame()));
        let ids = |r: FrameRequest| r.demand.iter().map(|k| k.block).collect::<Vec<BlockId>>();
        let e = expected.next_frame().unwrap();
        assert_eq!(ids(s0), ids(e), "offset 3 starts at step 3's visible set");
    }
}
