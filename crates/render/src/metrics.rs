//! Image-quality metrics: MSE / PSNR.
//!
//! Used to *quantify* rendering fidelity claims instead of eyeballing them
//! — e.g. how much image quality the §III-B LOD baseline actually costs at
//! each pyramid level, and regression guards on the ray caster.

use crate::image::Image;

/// Mean squared error over RGB channels (images must match in size).
pub(crate) fn mse(a: &Image, b: &Image) -> f64 {
    assert_eq!(a.width(), b.width(), "width mismatch");
    assert_eq!(a.height(), b.height(), "height mismatch");
    let mut sum = 0.0f64;
    let n = (a.width() * a.height() * 3) as f64;
    for y in 0..a.height() {
        for x in 0..a.width() {
            let (pa, pb) = (a.get(x, y), b.get(x, y));
            for k in 0..3 {
                let d = (pa[k] - pb[k]) as f64;
                sum += d * d;
            }
        }
    }
    sum / n
}

/// Peak signal-to-noise ratio in dB (peak = 1.0). Identical images give
/// `f64::INFINITY`.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    let e = mse(a, b);
    if e <= 0.0 {
        f64::INFINITY
    } else {
        -10.0 * e.log10()
    }
}

/// Box-filter downsample by an integer factor (for pyramid comparisons).
pub fn downsample(img: &Image, factor: usize) -> Image {
    assert!(factor >= 1, "factor must be >= 1");
    let w = (img.width() / factor).max(1);
    let h = (img.height() / factor).max(1);
    let mut out = Image::new(w, h);
    for oy in 0..h {
        for ox in 0..w {
            let mut acc = [0.0f32; 3];
            let mut count = 0u32;
            for dy in 0..factor {
                for dx in 0..factor {
                    let (sx, sy) = (ox * factor + dx, oy * factor + dy);
                    if sx < img.width() && sy < img.height() {
                        let p = img.get(sx, sy);
                        for k in 0..3 {
                            acc[k] += p[k];
                        }
                        count += 1;
                    }
                }
            }
            let c = count.max(1) as f32;
            out.set(ox, oy, crate::tf::Rgba::new(acc[0] / c, acc[1] / c, acc[2] / c, 1.0));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tf::Rgba;

    fn solid(w: usize, h: usize, v: f32) -> Image {
        let mut img = Image::new(w, h);
        for y in 0..h {
            for x in 0..w {
                img.set(x, y, Rgba::new(v, v, v, 1.0));
            }
        }
        img
    }

    #[test]
    fn identical_images_have_zero_mse_infinite_psnr() {
        let a = solid(8, 8, 0.5);
        assert_eq!(mse(&a, &a), 0.0);
        assert_eq!(psnr(&a, &a), f64::INFINITY);
    }

    #[test]
    fn known_mse() {
        let a = solid(4, 4, 0.0);
        let b = solid(4, 4, 0.5);
        assert!((mse(&a, &b) - 0.25).abs() < 1e-9);
        assert!((psnr(&a, &b) - 6.0206).abs() < 0.01);
    }

    #[test]
    fn psnr_ranks_degradation() {
        let base = solid(8, 8, 0.5);
        let slight = solid(8, 8, 0.52);
        let heavy = solid(8, 8, 0.9);
        assert!(psnr(&base, &slight) > psnr(&base, &heavy));
    }

    #[test]
    fn downsample_averages() {
        let mut img = Image::new(4, 4);
        for y in 0..4 {
            for x in 0..4 {
                img.set(x, y, Rgba::new(if x < 2 { 0.0 } else { 1.0 }, 0.5, 0.5, 1.0));
            }
        }
        let d = downsample(&img, 2);
        assert_eq!(d.width(), 2);
        assert_eq!(d.height(), 2);
        assert!((d.get(0, 0)[0] - 0.0).abs() < 1e-6);
        assert!((d.get(1, 0)[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn downsample_factor_one_is_identity() {
        let img = solid(5, 3, 0.3);
        assert_eq!(downsample(&img, 1), img);
    }

    #[test]
    #[should_panic]
    fn size_mismatch_panics() {
        mse(&solid(4, 4, 0.0), &solid(4, 5, 0.0));
    }
}
