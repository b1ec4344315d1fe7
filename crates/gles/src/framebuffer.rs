//! RGBA8 framebuffers with a depth plane: the render target of the
//! software executor. Rendered frames flow back from the service device
//! to the user device through the Turbo codec (Section V-A, ref \[25\]),
//! which diffs consecutive frames tile by tile on its own.

/// A width×height RGBA8 image.
///
/// # Examples
///
/// ```
/// use gbooster_gles::framebuffer::Framebuffer;
///
/// let mut fb = Framebuffer::new(32, 32);
/// fb.fill([255, 0, 0, 255]);
/// assert_eq!(fb.pixel(31, 31), [255, 0, 0, 255]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Framebuffer {
    width: u32,
    height: u32,
    pixels: Vec<u8>,
    depth: Vec<f32>,
}

impl Framebuffer {
    /// Creates a black, fully-opaque framebuffer with a cleared depth
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "framebuffer must be non-empty");
        let mut pixels = vec![0u8; (width * height * 4) as usize];
        for px in pixels.chunks_exact_mut(4) {
            px[3] = 255;
        }
        Framebuffer {
            width,
            height,
            pixels,
            depth: vec![1.0; (width * height) as usize],
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pixel count.
    pub fn pixel_count(&self) -> u64 {
        self.width as u64 * self.height as u64
    }

    /// Raw RGBA bytes, row-major.
    pub fn as_bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// The RGBA value at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is out of bounds.
    pub fn pixel(&self, x: u32, y: u32) -> [u8; 4] {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let i = ((y * self.width + x) * 4) as usize;
        [
            self.pixels[i],
            self.pixels[i + 1],
            self.pixels[i + 2],
            self.pixels[i + 3],
        ]
    }

    /// Writes the RGBA value at `(x, y)`; out-of-bounds writes are
    /// silently clipped (GL scissor semantics).
    pub fn set_pixel(&mut self, x: u32, y: u32, rgba: [u8; 4]) {
        if x >= self.width || y >= self.height {
            return;
        }
        let i = ((y * self.width + x) * 4) as usize;
        self.pixels[i..i + 4].copy_from_slice(&rgba);
    }

    /// Depth value at `(x, y)`, or `None` when out of bounds.
    pub fn depth_at(&self, x: u32, y: u32) -> Option<f32> {
        if x >= self.width || y >= self.height {
            return None;
        }
        Some(self.depth[(y * self.width + x) as usize])
    }

    /// Writes the depth value at `(x, y)`; out of bounds is clipped.
    pub fn set_depth(&mut self, x: u32, y: u32, z: f32) {
        if x >= self.width || y >= self.height {
            return;
        }
        self.depth[(y * self.width + x) as usize] = z;
    }

    /// Fills the color buffer with one RGBA value.
    pub fn fill(&mut self, rgba: [u8; 4]) {
        for px in self.pixels.chunks_exact_mut(4) {
            px.copy_from_slice(&rgba);
        }
    }

    /// Resets every depth sample to the far plane (1.0).
    pub fn clear_depth(&mut self, z: f32) {
        self.depth.fill(z);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_black_and_opaque() {
        let fb = Framebuffer::new(4, 4);
        assert_eq!(fb.pixel(0, 0), [0, 0, 0, 255]);
        assert_eq!(fb.depth_at(0, 0), Some(1.0));
    }

    #[test]
    fn set_and_get_round_trip() {
        let mut fb = Framebuffer::new(8, 8);
        fb.set_pixel(3, 5, [1, 2, 3, 4]);
        assert_eq!(fb.pixel(3, 5), [1, 2, 3, 4]);
        // Out-of-bounds writes are clipped, not panics.
        fb.set_pixel(100, 100, [9, 9, 9, 9]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_panics() {
        let _ = Framebuffer::new(0, 4);
    }
}
