//! Cache-line-aligned scratch buffers for the wide-load kernels.

/// A 64-byte-aligned f32 buffer the fast paths work in: rows of the common
/// dimensionalities then start on cache-line boundaries, so the wide loads
/// and stores of the kernels never straddle two lines (straddling defeats
/// store-to-load forwarding on hot, frequently re-visited rows). The
/// point-lane blocks of [`crate::PointBlocks`] live in one.
pub struct AlignedBuf {
    raw: Vec<f32>,
    offset: usize,
    len: usize,
}

impl AlignedBuf {
    /// A zero-filled buffer of `len` f32s starting on a 64-byte boundary.
    pub fn zeroed(len: usize) -> Self {
        let raw = vec![0.0f32; len + 16];
        // `Vec<f32>` data is at least 4-byte aligned, so the misalignment is
        // a whole number of f32 slots.
        let misalign = (raw.as_ptr() as usize % 64) / 4;
        let offset = (16 - misalign) % 16;
        AlignedBuf { raw, offset, len }
    }

    /// The aligned payload.
    pub fn as_slice(&self) -> &[f32] {
        &self.raw[self.offset..self.offset + self.len]
    }

    /// The aligned payload, mutably.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        let (offset, len) = (self.offset, self.len);
        &mut self.raw[offset..offset + len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_cache_line_aligned_and_round_trips() {
        for len in [0usize, 1, 7, 16, 64, 129] {
            let src: Vec<f32> = (0..len).map(|i| i as f32 * 0.5 - 3.0).collect();
            let mut buf = AlignedBuf::zeroed(len);
            assert_eq!(buf.as_slice().as_ptr() as usize % 64, 0);
            assert!(buf.as_slice().iter().all(|&x| x == 0.0));
            buf.as_mut_slice().copy_from_slice(&src);
            assert_eq!(buf.as_slice(), &src[..]);
        }
    }
}
