//! Minimal dense linear algebra: LU factorization with partial pivoting.
//!
//! The steady-state and mean-time-to-absorption computations need one
//! dense solve on matrices the size of the (modest) explored state space;
//! a purpose-built LU keeps the workspace free of external linear-algebra
//! dependencies.

use crate::CtmcError;

/// A dense row-major `n × n` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// An `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// The identity matrix.
    #[cfg(test)]
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Solves `self · x = b` by LU factorization with partial pivoting.
    ///
    /// # Errors
    ///
    /// [`CtmcError::SingularSystem`] when a pivot collapses to ~0, or
    /// [`CtmcError::DimensionMismatch`] when `b.len() != n`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, CtmcError> {
        let n = self.n;
        if b.len() != n {
            return Err(CtmcError::DimensionMismatch {
                got: b.len(),
                expected: n,
            });
        }
        let mut a = self.data.clone();
        let mut x: Vec<f64> = b.to_vec();
        let mut perm: Vec<usize> = (0..n).collect();

        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[perm[col] * n + col].abs();
            for row in (col + 1)..n {
                let v = a[perm[row] * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = row;
                }
            }
            if pivot_val < f64::MIN_POSITIVE * 1e4 {
                return Err(CtmcError::SingularSystem);
            }
            perm.swap(col, pivot_row);
            let prow = perm[col];
            let pivot = a[prow * n + col];
            for &r in &perm[(col + 1)..n] {
                let factor = a[r * n + col] / pivot;
                if factor == 0.0 {
                    continue;
                }
                a[r * n + col] = 0.0;
                for c in (col + 1)..n {
                    a[r * n + c] -= factor * a[prow * n + c];
                }
                x[r] -= factor * x[prow];
            }
        }
        // Back substitution.
        let mut out = vec![0.0; n];
        for col in (0..n).rev() {
            let r = perm[col];
            let mut acc = x[r];
            for c in (col + 1)..n {
                acc -= a[r * n + c] * out[c];
            }
            out[col] = acc / a[r * n + col];
        }
        Ok(out)
    }
}

impl std::ops::Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.n + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for DenseMatrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.n + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let m = DenseMatrix::identity(4);
        let b = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(m.solve(&b).unwrap(), b.to_vec());
    }

    #[test]
    fn solves_small_system() {
        // [2 1; 1 3] x = [5; 10] → x = [1; 3]
        let mut m = DenseMatrix::zeros(2);
        m[(0, 0)] = 2.0;
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        m[(1, 1)] = 3.0;
        let x = m.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // [0 1; 1 0] x = [2; 3] → x = [3; 2]
        let mut m = DenseMatrix::zeros(2);
        m[(0, 1)] = 1.0;
        m[(1, 0)] = 1.0;
        let x = m.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let mut m = DenseMatrix::zeros(2);
        m[(0, 0)] = 1.0;
        m[(0, 1)] = 2.0;
        m[(1, 0)] = 2.0;
        m[(1, 1)] = 4.0;
        assert_eq!(m.solve(&[1.0, 2.0]), Err(CtmcError::SingularSystem));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let m = DenseMatrix::identity(3);
        assert!(matches!(
            m.solve(&[1.0]),
            Err(CtmcError::DimensionMismatch {
                got: 1,
                expected: 3
            })
        ));
    }

    #[test]
    fn random_matrix_roundtrip() {
        // Deterministic pseudo-random 6x6 system: check A·x = b residual.
        let n = 6;
        let mut m = DenseMatrix::zeros(n);
        let mut seed = 0x12345678u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((seed >> 33) as f64 / (1u64 << 31) as f64) - 0.5
        };
        for i in 0..n {
            for j in 0..n {
                m[(i, j)] = next();
            }
            m[(i, i)] += 3.0; // diagonally dominant → nonsingular
        }
        let b: Vec<f64> = (0..n).map(|i| i as f64 + 1.0).collect();
        let x = m.solve(&b).unwrap();
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += m[(i, j)] * x[j];
            }
            assert!((acc - b[i]).abs() < 1e-10, "row {i}");
        }
    }
}
