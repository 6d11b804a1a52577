//! Tensor shapes and row-major index arithmetic.

use crate::error::TensorError;
use std::fmt;

/// The dimensions of a tensor, in row-major (C) order.
///
/// A `Shape` is an immutable list of dimension sizes. The rightmost
/// dimension varies fastest in memory.
///
/// # Examples
///
/// ```
/// use insitu_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.ndim(), 3);
/// assert_eq!(s.dims(), &[2, 3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from its dimension sizes.
    ///
    /// A scalar is represented by an empty dimension list and has one
    /// element.
    pub fn new(dims: Vec<usize>) -> Self {
        Shape { dims }
    }

    /// The dimension sizes.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of dimensions (rank).
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Total number of elements (the product of all dimensions).
    ///
    /// ```
    /// # use insitu_tensor::Shape;
    /// assert_eq!(Shape::new(vec![]).len(), 1); // scalar
    /// assert_eq!(Shape::new(vec![4, 0]).len(), 0);
    /// ```
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of dimension `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.ndim()`.
    pub fn dim(&self, i: usize) -> usize {
        self.dims[i]
    }

    /// Row-major strides: the linear-offset step for each dimension.
    ///
    /// ```
    /// # use insitu_tensor::Shape;
    /// assert_eq!(Shape::new(vec![2, 3, 4]).strides(), vec![12, 4, 1]);
    /// ```
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-index into a linear row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index rank or any
    /// coordinate is out of range.
    pub fn offset(&self, index: &[usize]) -> Result<usize, TensorError> {
        if index.len() != self.dims.len()
            || index.iter().zip(&self.dims).any(|(&i, &d)| i >= d)
        {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        let mut off = 0;
        for (&i, s) in index.iter().zip(self.strides()) {
            off += i * s;
        }
        Ok(off)
    }

    /// Converts a linear offset back into a multi-index.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `offset >= self.len()`.
    pub fn unravel(&self, mut offset: usize) -> Vec<usize> {
        debug_assert!(offset < self.len().max(1));
        let mut idx = vec![0; self.dims.len()];
        for i in (0..self.dims.len()).rev() {
            let d = self.dims[i];
            idx[i] = offset % d;
            offset /= d;
        }
        idx
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "x")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strides_row_major() {
        assert_eq!(Shape::from([2, 3, 4]).strides(), vec![12, 4, 1]);
        assert_eq!(Shape::from([5]).strides(), vec![1]);
        assert_eq!(Shape::new(vec![]).strides(), Vec::<usize>::new());
    }

    #[test]
    fn offset_and_unravel_roundtrip() {
        let s = Shape::from([2, 3, 4]);
        for lin in 0..s.len() {
            let idx = s.unravel(lin);
            assert_eq!(s.offset(&idx).unwrap(), lin);
        }
    }

    #[test]
    fn offset_rejects_bad_index() {
        let s = Shape::from([2, 3]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[0, 0, 0]).is_err());
    }

    #[test]
    fn scalar_shape() {
        let s = Shape::new(vec![]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.ndim(), 0);
        assert_eq!(s.offset(&[]).unwrap(), 0);
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::from([3, 224, 224]).to_string(), "(3x224x224)");
    }

    #[test]
    fn zero_sized_dim() {
        let s = Shape::from([4, 0, 2]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }
}
