//! Deterministic lattice value noise and fractal Brownian motion.
//!
//! The synthetic stand-ins for the paper's combustion and climate datasets
//! need spatially coherent "turbulence" so that block entropy varies the way
//! it does in real simulation output (smooth ambient regions → low entropy,
//! feature-rich regions → high entropy). A seeded hash-lattice value noise
//! gives that without any external data.

/// Seeded value-noise generator over `R^3`, smooth (C1) and in `[-1, 1]`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ValueNoise {
    seed: u64,
}

impl ValueNoise {
    /// Create a generator from a seed.
    pub(crate) fn new(seed: u64) -> Self {
        ValueNoise { seed }
    }

    /// Hash a lattice point to a pseudo-random value in `[-1, 1]`.
    #[inline]
    fn lattice(&self, x: i64, y: i64, z: i64) -> f64 {
        // SplitMix64-style avalanche over the packed coordinates.
        let mut h = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(x as u64))
            .wrapping_add(0xBF58_476D_1CE4_E5B9u64.wrapping_mul(y as u64))
            .wrapping_add(0x94D0_49BB_1331_11EBu64.wrapping_mul(z as u64));
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        // Map to [-1, 1].
        (h >> 11) as f64 / ((1u64 << 53) as f64) * 2.0 - 1.0
    }

    /// Smooth interpolated noise at a continuous point, in `[-1, 1]`.
    pub(crate) fn sample(&self, x: f64, y: f64, z: f64) -> f64 {
        let (x0, y0, z0) = (x.floor(), y.floor(), z.floor());
        let (fx, fy, fz) = (x - x0, y - y0, z - z0);
        // Smoothstep fade for C1 continuity at lattice boundaries.
        let fade = |t: f64| t * t * (3.0 - 2.0 * t);
        let (ux, uy, uz) = (fade(fx), fade(fy), fade(fz));
        let (ix, iy, iz) = (x0 as i64, y0 as i64, z0 as i64);

        let mut c = [0.0f64; 8];
        for (i, v) in c.iter_mut().enumerate() {
            let dx = (i & 1) as i64;
            let dy = ((i >> 1) & 1) as i64;
            let dz = ((i >> 2) & 1) as i64;
            *v = self.lattice(ix + dx, iy + dy, iz + dz);
        }
        let lerp = |a: f64, b: f64, t: f64| a + (b - a) * t;
        let x00 = lerp(c[0], c[1], ux);
        let x10 = lerp(c[2], c[3], ux);
        let x01 = lerp(c[4], c[5], ux);
        let x11 = lerp(c[6], c[7], ux);
        let y0v = lerp(x00, x10, uy);
        let y1v = lerp(x01, x11, uy);
        lerp(y0v, y1v, uz)
    }

    /// Fractal Brownian motion: `octaves` layers of self-similar noise.
    /// Result stays in `[-1, 1]` (normalized by the geometric weight sum).
    pub(crate) fn fbm(
        &self,
        x: f64,
        y: f64,
        z: f64,
        octaves: u32,
        lacunarity: f64,
        gain: f64,
    ) -> f64 {
        let mut amp = 1.0;
        let mut freq = 1.0;
        let mut sum = 0.0;
        let mut norm = 0.0;
        for octave in 0..octaves {
            // Decorrelate octaves by shifting the seed.
            let layer = ValueNoise::new(self.seed.wrapping_add(octave as u64 * 0x9E37_79B9));
            sum += amp * layer.sample(x * freq, y * freq, z * freq);
            norm += amp;
            amp *= gain;
            freq *= lacunarity;
        }
        if norm > 0.0 {
            sum / norm
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_is_deterministic_per_seed() {
        let a = ValueNoise::new(11);
        let b = ValueNoise::new(11);
        let c = ValueNoise::new(12);
        assert_eq!(a.sample(1.3, 2.7, 0.2), b.sample(1.3, 2.7, 0.2));
        assert_ne!(a.sample(1.3, 2.7, 0.2), c.sample(1.3, 2.7, 0.2));
    }

    #[test]
    fn noise_is_bounded() {
        let n = ValueNoise::new(5);
        for i in 0..2000 {
            let t = i as f64 * 0.173;
            let v = n.sample(t, t * 0.7, t * 1.3);
            assert!((-1.0..=1.0).contains(&v), "noise escaped bounds: {v}");
        }
    }

    #[test]
    fn noise_is_continuous() {
        // Small input step ⇒ small output step.
        let n = ValueNoise::new(5);
        let mut prev = n.sample(0.0, 0.5, 0.5);
        for i in 1..10_000 {
            let v = n.sample(i as f64 * 1e-3, 0.5, 0.5);
            assert!((v - prev).abs() < 0.02, "jump at step {i}");
            prev = v;
        }
    }

    #[test]
    fn noise_varies_in_space() {
        let n = ValueNoise::new(5);
        let samples: Vec<f64> =
            (0..100).map(|i| n.sample(i as f64 * 0.61, i as f64 * 0.37, 0.0)).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(var > 0.01, "noise is nearly constant (var = {var})");
    }

    #[test]
    fn fbm_is_bounded_and_rougher_with_octaves() {
        let n = ValueNoise::new(9);
        for i in 0..500 {
            let t = i as f64 * 0.217;
            let v = n.fbm(t, -t, t * 0.5, 5, 2.0, 0.5);
            assert!((-1.0..=1.0).contains(&v));
        }
        // Higher octave count adds high-frequency energy: the mean absolute
        // finite difference must grow.
        // Total-variation proxy with a step fine enough to resolve the
        // highest octave's lattice (freq 2^5 = 32 ⇒ step << 1/32).
        let rough = |oct: u32| -> f64 {
            (1..4000)
                .map(|i| {
                    let a = n.fbm(i as f64 * 0.005, 0.0, 0.0, oct, 2.0, 0.5);
                    let b = n.fbm((i - 1) as f64 * 0.005, 0.0, 0.0, oct, 2.0, 0.5);
                    (a - b).abs()
                })
                .sum()
        };
        assert!(rough(6) > rough(1));
    }

    #[test]
    fn zero_octaves_is_zero() {
        assert_eq!(ValueNoise::new(1).fbm(0.3, 0.4, 0.5, 0, 2.0, 0.5), 0.0);
    }
}
