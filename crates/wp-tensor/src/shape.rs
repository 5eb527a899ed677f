//! Shapes for dense, contiguous, row-major tensors.

/// A tensor shape: the extent of each dimension, outermost first.
#[derive(Debug, Clone)]
pub struct Shape(Vec<usize>);

impl Shape {
    /// Total number of elements (product of extents; 1 for a scalar shape).
    #[inline]
    pub fn numel(&self) -> usize {
        self.0.iter().product()
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numel() {
        assert_eq!(Shape::from([2, 3, 4]).numel(), 24);
        assert_eq!(Shape::from([]).numel(), 1);
    }
}
