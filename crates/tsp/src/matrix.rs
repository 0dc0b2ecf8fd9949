//! Dense symmetric distance matrices.

use bc_geom::Point;

/// A dense symmetric matrix of pairwise distances.
///
/// Stored as a flat row-major `Vec<f64>`; all planner instances in this
/// system are at most a few hundred points, where the dense representation
/// is both fastest and simplest.
///
/// # Example
///
/// ```
/// use bc_geom::Point;
/// use bc_tsp::DistanceMatrix;
///
/// let m = DistanceMatrix::from_points(&[Point::new(0.0, 0.0), Point::new(3.0, 4.0)]);
/// assert_eq!(m.dist(0, 1), 5.0);
/// assert_eq!(m.dist(1, 0), 5.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DistanceMatrix {
    /// Builds the Euclidean distance matrix of a point set.
    pub fn from_points(points: &[Point]) -> Self {
        let n = points.len();
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = points[i].distance(points[j]);
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        DistanceMatrix { n, data }
    }

    /// Builds a matrix from an explicit function of index pairs.
    ///
    /// The function is evaluated once per unordered pair and mirrored, so
    /// the result is always symmetric with a zero diagonal.
    pub fn from_fn<F: FnMut(usize, usize) -> f64>(n: usize, mut f: F) -> Self {
        let mut data = vec![0.0; n * n];
        for i in 0..n {
            for j in (i + 1)..n {
                let d = f(i, j);
                data[i * n + j] = d;
                data[j * n + i] = d;
            }
        }
        DistanceMatrix { n, data }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` when the matrix has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between points `i` and `j`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of bounds.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f64 {
        assert!(i < self.n && j < self.n, "index out of bounds");
        self.data[i * self.n + j]
    }

    /// The restriction of the matrix to `indices`, in the given order.
    ///
    /// Entry `(a, b)` of the result equals `self.dist(indices[a],
    /// indices[b])` exactly (values are copied, not recomputed), so a
    /// sub-tour solved on the view is bit-identical to one solved on a
    /// matrix built directly from the corresponding point subset.
    /// Repeated indices are allowed and produce zero off-diagonal
    /// distance between their copies' mirrored entries.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of bounds.
    pub fn submatrix(&self, indices: &[usize]) -> DistanceMatrix {
        DistanceMatrix::from_fn(indices.len(), |a, b| self.dist(indices[a], indices[b]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetry_and_zero_diagonal() {
        let pts: Vec<Point> = (0..6)
            .map(|i| Point::new(i as f64 * 2.0, (i as f64).sin()))
            .collect();
        let m = DistanceMatrix::from_points(&pts);
        for i in 0..6 {
            assert_eq!(m.dist(i, i), 0.0);
            for j in 0..6 {
                assert_eq!(m.dist(i, j), m.dist(j, i));
            }
        }
    }

    #[test]
    fn triangle_inequality_euclidean() {
        let pts = [
            Point::new(0.0, 0.0),
            Point::new(5.0, 1.0),
            Point::new(2.0, 7.0),
        ];
        let m = DistanceMatrix::from_points(&pts);
        for i in 0..3 {
            for j in 0..3 {
                for k in 0..3 {
                    assert!(m.dist(i, j) <= m.dist(i, k) + m.dist(k, j) + 1e-12);
                }
            }
        }
    }

    #[test]
    fn from_fn_mirrors() {
        let m = DistanceMatrix::from_fn(3, |i, j| (i + j) as f64);
        assert_eq!(m.dist(0, 2), 2.0);
        assert_eq!(m.dist(2, 0), 2.0);
        assert_eq!(m.dist(1, 1), 0.0);
    }

    #[test]
    fn submatrix_copies_exact_distances() {
        let pts: Vec<Point> = (0..7)
            .map(|i| Point::new((i as f64 * 1.37).sin() * 40.0, (i as f64 * 2.11).cos() * 40.0))
            .collect();
        let m = DistanceMatrix::from_points(&pts);
        let pick = [5, 0, 3];
        let sub = m.submatrix(&pick);
        let direct = DistanceMatrix::from_points(&[pts[5], pts[0], pts[3]]);
        assert_eq!(sub, direct);
        for a in 0..3 {
            for b in 0..3 {
                assert_eq!(sub.dist(a, b), m.dist(pick[a], pick[b]));
            }
        }
    }

    #[test]
    fn submatrix_of_empty_selection() {
        let m = DistanceMatrix::from_points(&[Point::ORIGIN, Point::new(1.0, 0.0)]);
        assert!(m.submatrix(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn submatrix_rejects_out_of_bounds() {
        let m = DistanceMatrix::from_points(&[Point::ORIGIN]);
        let _ = m.submatrix(&[0, 1]);
    }

    #[test]
    fn empty_matrix() {
        let m = DistanceMatrix::from_points(&[]);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }
}
