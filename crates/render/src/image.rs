//! Simple RGB image buffer with PPM output.

use crate::tf::Rgba;

/// A row-major RGB image (f32 components in `[0, 1]`).
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<[f32; 3]>,
}

impl Image {
    /// Black image of the given size.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image { width, height, pixels: vec![[0.0; 3]; width * height] }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Set pixel `(x, y)` ((0,0) = top-left) from an RGBA sample
    /// (alpha is dropped — compositing happens in the ray caster).
    pub fn set(&mut self, x: usize, y: usize, c: Rgba) {
        let i = y * self.width + x;
        self.pixels[i] = [c.r, c.g, c.b];
    }

    /// Get pixel `(x, y)` as RGB.
    pub fn get(&self, x: usize, y: usize) -> [f32; 3] {
        self.pixels[y * self.width + x]
    }

    /// Mutable access to a row (for parallel rendering).
    pub(crate) fn rows_mut(&mut self) -> std::slice::ChunksMut<'_, [f32; 3]> {
        self.pixels.chunks_mut(self.width)
    }

    /// Mean luminance (diagnostic / tests).
    pub fn mean_luminance(&self) -> f64 {
        if self.pixels.is_empty() {
            return 0.0;
        }
        let s: f64 = self
            .pixels
            .iter()
            .map(|p| 0.2126 * p[0] as f64 + 0.7152 * p[1] as f64 + 0.0722 * p[2] as f64)
            .sum();
        s / self.pixels.len() as f64
    }

    /// Number of pixels brighter than `threshold` luminance.
    #[cfg(test)]
    pub(crate) fn bright_pixels(&self, threshold: f64) -> usize {
        self.pixels
            .iter()
            .filter(|p| {
                0.2126 * p[0] as f64 + 0.7152 * p[1] as f64 + 0.0722 * p[2] as f64 > threshold
            })
            .count()
    }

    /// Encode as binary PPM (P6).
    pub(crate) fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for p in &self.pixels {
            for &c in p {
                out.push((c.clamp(0.0, 1.0) * 255.0).round() as u8);
            }
        }
        out
    }

    /// Write a PPM file.
    pub fn save_ppm(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_ppm())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_black() {
        let img = Image::new(4, 3);
        assert_eq!(img.get(0, 0), [0.0; 3]);
        assert_eq!(img.mean_luminance(), 0.0);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut img = Image::new(4, 3);
        img.set(2, 1, Rgba::new(0.5, 0.25, 1.0, 0.9));
        assert_eq!(img.get(2, 1), [0.5, 0.25, 1.0]);
    }

    #[test]
    fn ppm_header_and_size() {
        let img = Image::new(5, 7);
        let ppm = img.to_ppm();
        assert!(ppm.starts_with(b"P6\n5 7\n255\n"));
        assert_eq!(ppm.len(), 11 + 5 * 7 * 3);
    }

    #[test]
    fn ppm_encodes_full_white() {
        let mut img = Image::new(1, 1);
        img.set(0, 0, Rgba::new(1.0, 1.0, 1.0, 1.0));
        let ppm = img.to_ppm();
        let n = ppm.len();
        assert_eq!(&ppm[n - 3..], &[255, 255, 255]);
    }

    #[test]
    fn bright_pixel_count() {
        let mut img = Image::new(2, 2);
        img.set(0, 0, Rgba::new(1.0, 1.0, 1.0, 1.0));
        img.set(1, 1, Rgba::new(0.1, 0.1, 0.1, 1.0));
        assert_eq!(img.bright_pixels(0.5), 1);
        assert_eq!(img.bright_pixels(0.01), 2);
    }

    #[test]
    fn rows_mut_covers_image() {
        let mut img = Image::new(3, 4);
        let rows: Vec<_> = img.rows_mut().collect();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[0].len(), 3);
    }

    #[test]
    #[should_panic]
    fn zero_size_panics() {
        Image::new(0, 4);
    }
}
