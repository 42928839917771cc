//! Synthetic stand-ins for the paper's experimental datasets (Table I).
//!
//! | name              | description            | resolution       | #vars | size  |
//! |-------------------|------------------------|------------------|-------|-------|
//! | `3d_ball`         | synthetic              | 1024×1024×1024   | 1     | 4 GB  |
//! | `lifted_mix_frac` | combustion simulation  | 800×686×215      | 1     | 472 MB|
//! | `lifted_rr`       | combustion simulation  | 800×800×400      | 1     | 1 GB  |
//! | `climate`         | climate simulation     | 294×258×98       | 244   | 7.2 GB|
//!
//! The real combustion/climate data is proprietary (Sandia/NASA), so each
//! dataset is replaced by a procedural generator that reproduces the two
//! properties the replacement policy actually depends on: the grid geometry
//! (hence block visibility) and a realistic spatial entropy distribution
//! (smooth ambient regions vs. high-variation feature regions). See
//! DESIGN.md §2 for the substitution argument.

use crate::dims::Dims3;
use crate::field::{ScalarFunction, VolumeField};
use crate::noise::ValueNoise;

/// Identifier of one of the paper's four experimental datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Synthetic ball with continuous interior intensity changes.
    Ball3d,
    /// Combustion: stoichiometric mixture fraction of a lifted flame.
    LiftedMixFrac,
    /// Combustion: reaction rate of a lifted flame.
    LiftedRr,
    /// Multivariate, time-varying climate simulation.
    Climate,
}

impl DatasetKind {
    /// All four datasets in Table I order.
    pub const ALL: [DatasetKind; 4] = [
        DatasetKind::Ball3d,
        DatasetKind::LiftedMixFrac,
        DatasetKind::LiftedRr,
        DatasetKind::Climate,
    ];

    /// The paper's dataset name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Ball3d => "3d_ball",
            DatasetKind::LiftedMixFrac => "lifted_mix_frac",
            DatasetKind::LiftedRr => "lifted_rr",
            DatasetKind::Climate => "climate",
        }
    }

    /// Table I description.
    pub fn description(&self) -> &'static str {
        match self {
            DatasetKind::Ball3d => "a synthetic dataset",
            DatasetKind::LiftedMixFrac => "a combustion simulation dataset",
            DatasetKind::LiftedRr => "a combustion simulation dataset",
            DatasetKind::Climate => "a climate simulation dataset",
        }
    }

    /// Full-scale resolution from Table I.
    pub fn full_resolution(&self) -> Dims3 {
        match self {
            DatasetKind::Ball3d => Dims3::cube(1024),
            DatasetKind::LiftedMixFrac => Dims3::new(800, 686, 215),
            DatasetKind::LiftedRr => Dims3::new(800, 800, 400),
            DatasetKind::Climate => Dims3::new(294, 258, 98),
        }
    }

    /// Number of variables (Table I).
    pub fn num_variables(&self) -> usize {
        match self {
            DatasetKind::Climate => 244,
            _ => 1,
        }
    }
}

/// A concrete dataset instance: a kind at some resolution scale.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which Table I dataset.
    pub kind: DatasetKind,
    /// Per-axis divisor applied to the full Table I resolution (1 = paper
    /// scale). Benches default to 4 so `3d_ball` becomes 256³.
    pub scale: usize,
    /// Seed controlling all procedural noise in the generators.
    pub seed: u64,
}

impl DatasetSpec {
    /// Create a spec; `scale` is the per-axis resolution divisor.
    pub fn new(kind: DatasetKind, scale: usize, seed: u64) -> Self {
        assert!(scale >= 1, "scale divisor must be >= 1");
        DatasetSpec { kind, scale, seed }
    }

    /// Resolution after applying the scale divisor (each axis ≥ 8 voxels).
    pub fn resolution(&self) -> Dims3 {
        let full = self.kind.full_resolution();
        Dims3::new(
            (full.nx / self.scale).max(8),
            (full.ny / self.scale).max(8),
            (full.nz / self.scale).max(8),
        )
    }

    /// Dataset size in bytes as Table I reports it: all variables of one
    /// timestep, f32 voxels (the climate entry's 7.2 GB is 244 variables of
    /// one 294×258×98 snapshot).
    pub fn table1_bytes(&self) -> usize {
        self.resolution().bytes_f32() * self.kind.num_variables()
    }

    /// The generator for variable `var` of this dataset.
    pub fn generator(&self, var: usize) -> Box<dyn ScalarFunction + Send> {
        assert!(var < self.kind.num_variables(), "variable index out of range");
        match self.kind {
            DatasetKind::Ball3d => Box::new(Ball3dField::new(self.seed)),
            DatasetKind::LiftedMixFrac => Box::new(CombustionField::mix_frac(self.seed)),
            DatasetKind::LiftedRr => Box::new(CombustionField::reaction_rate(self.seed)),
            DatasetKind::Climate => Box::new(ClimateField::new(self.seed, var)),
        }
    }

    /// Materialize variable `var` at normalized time `t` (in `[0, 1]`).
    pub fn materialize(&self, var: usize, t: f64) -> VolumeField {
        VolumeField::from_function(self.resolution(), &*self.generator(var), t)
    }
}

/// `3d_ball`: radial field with continuous interior variation — a smooth
/// oscillating shell structure so interior blocks carry signal while the
/// exterior is exactly-zero ambient space.
#[derive(Debug, Clone)]
pub(crate) struct Ball3dField {
    noise: ValueNoise,
}

impl Ball3dField {
    /// Create the generator from a noise seed.
    pub(crate) fn new(seed: u64) -> Self {
        Ball3dField { noise: ValueNoise::new(seed) }
    }
}

impl ScalarFunction for Ball3dField {
    fn eval(&self, x: f64, y: f64, z: f64, _t: f64) -> f32 {
        // Radius from volume center, normalized so r = 1 at face centers.
        let (dx, dy, dz) = (x - 0.5, y - 0.5, z - 0.5);
        let r = (dx * dx + dy * dy + dz * dz).sqrt() * 2.0;
        if r >= 1.0 {
            return 0.0; // ambient outside the ball
        }
        // Continuous intensity change: damped radial oscillation plus a
        // whisper of angular variation so iso-shells are not perfectly flat.
        let shell = (1.0 - r) * (0.5 + 0.5 * (r * 18.0).cos());
        let wobble = 0.05 * self.noise.sample(x * 6.0, y * 6.0, z * 6.0);
        (shell + wobble * (1.0 - r)).max(0.0) as f32
    }
}

/// Combustion generator: a lifted turbulent jet along +X.
///
/// `mix_frac` is a diffusing jet core with fBm turbulence growing
/// downstream; `reaction_rate` is a thin sheet where the mixture fraction
/// crosses its stoichiometric value — concentrated, high-entropy structure
/// surrounded by near-zero ambient, as in the real `lifted_rr` data.
#[derive(Debug, Clone)]
pub(crate) struct CombustionField {
    noise: ValueNoise,
    reaction_rate: bool,
}

impl CombustionField {
    /// The mixture-fraction variable (`lifted_mix_frac`).
    pub(crate) fn mix_frac(seed: u64) -> Self {
        CombustionField { noise: ValueNoise::new(seed), reaction_rate: false }
    }

    /// The reaction-rate variable (`lifted_rr`).
    pub(crate) fn reaction_rate(seed: u64) -> Self {
        CombustionField { noise: ValueNoise::new(seed ^ 0xC0FFEE), reaction_rate: true }
    }

    /// The underlying mixture-fraction field in `[0, 1]`.
    fn mixture(&self, x: f64, y: f64, z: f64) -> f64 {
        // Jet core half-width grows downstream; lift-off at x ≈ 0.08.
        let cy = 0.5 + 0.04 * self.noise.sample(x * 4.0, 0.0, 7.7);
        let cz = 0.5 + 0.04 * self.noise.sample(0.0, x * 4.0, 3.3);
        let w = 0.04 + 0.22 * x;
        let r2 = ((y - cy).powi(2) + (z - cz).powi(2)) / (w * w);
        let core = (-r2).exp();
        // Turbulence intensity grows downstream of the lift-off height.
        let turb_amp = 0.35 * (x - 0.08).clamp(0.0, 0.6);
        let turb = self.noise.fbm(x * 10.0, y * 10.0, z * 10.0, 5, 2.1, 0.55);
        (core * (1.0 + turb_amp * turb)).clamp(0.0, 1.0)
    }
}

impl ScalarFunction for CombustionField {
    fn eval(&self, x: f64, y: f64, z: f64, _t: f64) -> f32 {
        let f = self.mixture(x, y, z);
        if !self.reaction_rate {
            return f as f32;
        }
        // Reaction rate peaks where f crosses stoichiometric f_st = 0.42,
        // gated on being downstream of lift-off.
        let f_st = 0.42;
        let sheet = (-(f - f_st).powi(2) / (2.0 * 0.03f64.powi(2))).exp();
        let lifted = ((x - 0.12) / 0.05).clamp(0.0, 1.0);
        (sheet * lifted) as f32
    }
}

/// Climate generator: 244 variables in a few physical families, each with
/// distinct spatial structure; time moves a typhoon vortex and its
/// interacting smoke plume across the domain (the scenario of Figs. 2–3).
#[derive(Debug, Clone)]
pub(crate) struct ClimateField {
    noise: ValueNoise,
    var: usize,
}

/// Physical family of a climate variable, chosen by index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ClimateFamily {
    /// Water-vapor-like: smooth vertical decay + plumes (e.g. QVAPOR).
    Moisture,
    /// Wind-like: vortex flow around the typhoon center.
    Wind,
    /// Aerosol-like: smoke/PM10 plume, highly localized (Observation 2's
    /// "severely contaminated" regions).
    Aerosol,
    /// Thermodynamic: smooth latitudinal/vertical gradients (low entropy
    /// almost everywhere).
    Thermo,
}

impl ClimateField {
    /// Generator for climate variable `var`.
    pub(crate) fn new(seed: u64, var: usize) -> Self {
        ClimateField { noise: ValueNoise::new(seed.wrapping_add(var as u64 * 0x5851_F42D)), var }
    }

    /// Deterministic family assignment: the 244 variables cycle through the
    /// four families so every family is well represented.
    pub(crate) fn family(&self) -> ClimateFamily {
        match self.var % 4 {
            0 => ClimateFamily::Moisture,
            1 => ClimateFamily::Wind,
            2 => ClimateFamily::Aerosol,
            _ => ClimateFamily::Thermo,
        }
    }

    /// Typhoon eye position at normalized time `t` (tracks west-northwest,
    /// like the paper's southeast-Asia scenario).
    fn eye(&self, t: f64) -> (f64, f64) {
        (0.75 - 0.5 * t, 0.35 + 0.3 * t)
    }
}

impl ScalarFunction for ClimateField {
    fn eval(&self, x: f64, y: f64, z: f64, t: f64) -> f32 {
        let (ex, ey) = self.eye(t);
        let dx = x - ex;
        let dy = y - ey;
        let r = (dx * dx + dy * dy).sqrt();
        let v = match self.family() {
            ClimateFamily::Moisture => {
                let base = (-(z * 3.0)).exp();
                let plume = self.noise.fbm(x * 8.0, y * 8.0, z * 4.0 + t * 2.0, 4, 2.0, 0.5);
                base * (0.7 + 0.3 * plume)
            }
            ClimateFamily::Wind => {
                // Tangential vortex speed: ramps up to the eyewall then
                // decays outward; plus background shear.
                let eyewall = 0.08;
                let speed = if r < eyewall { r / eyewall } else { (eyewall / r).powf(0.6) };
                let shear = 0.2 * (z - 0.5);
                (speed + shear + 0.08 * self.noise.sample(x * 12.0, y * 12.0, z * 6.0))
                    .clamp(-1.0, 2.0)
            }
            ClimateFamily::Aerosol => {
                // Smoke source in the southwest, advected towards the
                // typhoon; sharply localized ⇒ most blocks are ambient.
                let sx = 0.2 + 0.3 * t;
                let sy = 0.25;
                let d2 = ((x - sx).powi(2) + (y - sy).powi(2)) / 0.02;
                let plume = (-d2).exp() * (-(z * 5.0)).exp();
                let tongue = ((-((y - sy - 0.4 * (x - sx)).powi(2)) / 0.005).exp()
                    * ((x - sx) / 0.5).clamp(0.0, 1.0))
                    * (-(z * 4.0)).exp();
                let turb = 0.5 + 0.5 * self.noise.fbm(x * 14.0, y * 14.0, z * 7.0, 4, 2.0, 0.5);
                ((plume + 0.6 * tongue) * turb).clamp(0.0, 1.0)
            }
            ClimateFamily::Thermo => {
                // Smooth meridional + vertical gradient, tiny noise.
                1.0 - 0.6 * y - 0.3 * z + 0.02 * self.noise.sample(x * 3.0, y * 3.0, z * 2.0)
            }
        };
        v as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BrickLayout;
    use crate::stats::BlockStats;

    #[test]
    fn table1_resolutions_match_paper() {
        assert_eq!(DatasetKind::Ball3d.full_resolution(), Dims3::cube(1024));
        assert_eq!(DatasetKind::LiftedMixFrac.full_resolution(), Dims3::new(800, 686, 215));
        assert_eq!(DatasetKind::LiftedRr.full_resolution(), Dims3::new(800, 800, 400));
        assert_eq!(DatasetKind::Climate.full_resolution(), Dims3::new(294, 258, 98));
        assert_eq!(DatasetKind::Climate.num_variables(), 244);
    }

    #[test]
    fn table1_sizes_match_paper() {
        // Full-scale sizes (Table I): 4 GB, 472 MB, 1 GB, 7.2 GB.
        let gb = |b: usize| b as f64 / (1024.0 * 1024.0 * 1024.0);
        let spec = |k| DatasetSpec::new(k, 1, 0);
        assert!((gb(spec(DatasetKind::Ball3d).resolution().bytes_f32()) - 4.0).abs() < 0.01);
        let mf = spec(DatasetKind::LiftedMixFrac).resolution().bytes_f32();
        assert!((mf as f64 / (1024.0 * 1024.0) - 472.0).abs() < 30.0);
        let rr = spec(DatasetKind::LiftedRr).resolution().bytes_f32();
        assert!((gb(rr) - 1.0).abs() < 0.05);
        // climate: 244 variables of one timestep ≈ 7.2 GB (decimal GB —
        // Table I uses binary GiB for 3d_ball but decimal for climate).
        let cl = DatasetSpec::new(DatasetKind::Climate, 1, 0).table1_bytes() as f64 / 1e9;
        assert!((cl - 7.25).abs() < 0.1, "climate {cl}");
    }

    #[test]
    fn scaled_resolution_divides_axes() {
        let s = DatasetSpec::new(DatasetKind::Ball3d, 4, 0);
        assert_eq!(s.resolution(), Dims3::cube(256));
    }

    #[test]
    fn scale_floors_at_eight_voxels() {
        let s = DatasetSpec::new(DatasetKind::Climate, 1000, 0);
        let r = s.resolution();
        assert!(r.nx >= 8 && r.ny >= 8 && r.nz >= 8);
    }

    #[test]
    fn ball_is_zero_outside_radius() {
        let f = Ball3dField::new(1);
        assert_eq!(f.eval(0.0, 0.0, 0.0, 0.0), 0.0); // corner: r > 1
        assert!(f.eval(0.5, 0.5, 0.5, 0.0) > 0.0); // center
    }

    #[test]
    fn ball_generation_is_deterministic() {
        let s = DatasetSpec::new(DatasetKind::Ball3d, 32, 7);
        let a = s.materialize(0, 0.0);
        let b = s.materialize(0, 0.0);
        assert_eq!(a, b);
    }

    #[test]
    fn mixfrac_peaks_in_jet_core() {
        let f = CombustionField::mix_frac(3);
        let core = f.eval(0.3, 0.5, 0.5, 0.0);
        let ambient = f.eval(0.3, 0.02, 0.02, 0.0);
        assert!(core > 0.5, "core = {core}");
        assert!(ambient < 0.05, "ambient = {ambient}");
    }

    #[test]
    fn reaction_rate_is_zero_before_liftoff() {
        let f = CombustionField::reaction_rate(3);
        assert_eq!(f.eval(0.05, 0.5, 0.5, 0.0), 0.0);
    }

    #[test]
    fn reaction_rate_is_bounded() {
        let f = CombustionField::reaction_rate(3);
        for i in 0..500 {
            let t = i as f64 / 500.0;
            let v = f.eval(t, (t * 7.0) % 1.0, (t * 13.0) % 1.0, 0.0);
            assert!((0.0..=1.0).contains(&(v as f64)));
        }
    }

    #[test]
    fn climate_families_cycle() {
        assert_eq!(ClimateField::new(0, 0).family(), ClimateFamily::Moisture);
        assert_eq!(ClimateField::new(0, 1).family(), ClimateFamily::Wind);
        assert_eq!(ClimateField::new(0, 2).family(), ClimateFamily::Aerosol);
        assert_eq!(ClimateField::new(0, 3).family(), ClimateFamily::Thermo);
        assert_eq!(ClimateField::new(0, 244 - 1).family(), ClimateFamily::Thermo);
    }

    #[test]
    fn climate_is_time_varying() {
        let f = ClimateField::new(0, 1); // wind
        let a = f.eval(0.6, 0.4, 0.5, 0.0);
        let b = f.eval(0.6, 0.4, 0.5, 1.0);
        assert_ne!(a, b);
    }

    #[test]
    fn aerosol_field_is_mostly_ambient() {
        // Observation 2: most blocks should be low-importance.
        let spec = DatasetSpec::new(DatasetKind::Climate, 6, 5);
        let field = VolumeField::from_function(spec.resolution(), &ClimateField::new(5, 2), 0.3);
        let layout = BrickLayout::with_target_blocks(spec.resolution(), 128);
        let (lo, hi) = field.min_max();
        let mut entropies: Vec<f64> = layout
            .block_ids()
            .map(|id| BlockStats::compute(&field.extract_block(&layout, id), lo, hi, 64).entropy)
            .collect();
        entropies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = entropies[entropies.len() / 2];
        let top = entropies[entropies.len() - 1];
        assert!(top > median * 1.5 + 0.5, "no entropy contrast: median {median}, top {top}");
    }

    #[test]
    fn ball_entropy_contrast_between_interior_and_exterior() {
        let spec = DatasetSpec::new(DatasetKind::Ball3d, 16, 2); // 64³
        let field = spec.materialize(0, 0.0);
        let layout = BrickLayout::new(field.dims, Dims3::cube(16));
        let (lo, hi) = field.min_max();
        // Corner block (all outside the ball) vs. a central block.
        let corner = layout.block_at(0, 0, 0);
        let center = layout.block_at(2, 2, 2);
        let ec = BlockStats::compute(&field.extract_block(&layout, corner), lo, hi, 64).entropy;
        let ei = BlockStats::compute(&field.extract_block(&layout, center), lo, hi, 64).entropy;
        assert!(ec < 0.2, "corner should be ambient, entropy {ec}");
        assert!(ei > 1.0, "center should be structured, entropy {ei}");
    }

    #[test]
    #[should_panic]
    fn out_of_range_variable_panics() {
        DatasetSpec::new(DatasetKind::Ball3d, 8, 0).generator(1);
    }
}
