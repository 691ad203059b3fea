// Package eigen implements the symmetric eigensolvers behind the spectral
// partitioners: a Lanczos iteration with full reorthogonalization and
// deflation (the sparse workhorse, standing in for the block Lanczos code
// the paper uses), a symmetric tridiagonal QL solver for the Lanczos
// projection, a dense Jacobi solver used for cross-validation and tiny
// instances, and a Fiedler-vector driver that ties them together.
package eigen

import (
	"errors"
	"math"
)

// SymTridiagonal solves the full eigenproblem of a symmetric tridiagonal
// matrix with diagonal d (length n) and subdiagonal e (length n−1), using
// the implicit QL method with Wilkinson shifts (the classical EISPACK tql2
// algorithm). It returns the eigenvalues in ascending order and, when
// wantVectors is set, the matrix of eigenvectors z with z[i][k] the i-th
// component of the k-th eigenvector. d and e are not modified.
func SymTridiagonal(d, e []float64, wantVectors bool) (vals []float64, z [][]float64, err error) {
	n := len(d)
	if wantVectors && n > 0 {
		z = make([][]float64, n)
		for i := range z {
			z[i] = make([]float64, n)
			z[i][i] = 1
		}
	}
	vals, err = tql2(d, e, z)
	if err != nil {
		return nil, nil, err
	}
	return vals, z, nil
}

// symTridiagonalLastRow is SymTridiagonal restricted to the last row of
// the eigenvector matrix: it returns the ascending eigenvalues and
// last[k] = z[n−1][k], the bottom entry of the k-th eigenvector — what a
// Ritz residual estimate |β·s| needs. It costs O(n²) time and O(n) space
// instead of the O(n³) and n×n of the full vectors, and both outputs are
// bit-identical to SymTridiagonal's (each row of Z is rotated
// independently of the others).
func symTridiagonalLastRow(d, e []float64) (vals, last []float64, err error) {
	n := len(d)
	if n > 0 {
		last = make([]float64, n)
		last[n-1] = 1
	}
	vals, err = tql2(d, e, [][]float64{last})
	if err != nil {
		return nil, nil, err
	}
	return vals, last, nil
}

// tql2 runs the implicit QL iteration on the tridiagonal (d, e) and
// returns its eigenvalues in ascending order. z holds any subset of the
// rows of the eigenvector matrix, each initialized to the matching row of
// the identity: the plane rotations and the final sort act on columns, so
// every row evolves independently and a caller pays only for the rows it
// keeps. z may be empty.
func tql2(d, e []float64, z [][]float64) ([]float64, error) {
	n := len(d)
	if len(e) != n-1 && !(n == 0 && len(e) == 0) {
		return nil, errors.New("eigen: subdiagonal must have length n-1")
	}
	if n == 0 {
		return nil, nil
	}
	vals := append([]float64(nil), d...)
	sub := make([]float64, n) // sub[0..n-2] active, sub[n-1] = 0
	copy(sub, e)

	for l := 0; l < n; l++ {
		for iter := 0; ; iter++ {
			// Find the first small subdiagonal element at or after l.
			m := l
			for ; m < n-1; m++ {
				dd := math.Abs(vals[m]) + math.Abs(vals[m+1])
				if math.Abs(sub[m]) <= math.SmallestNonzeroFloat64 || math.Abs(sub[m]) <= 1e-16*dd {
					break
				}
			}
			if m == l {
				break
			}
			if iter >= 50 {
				return nil, errors.New("eigen: tridiagonal QL failed to converge in 50 iterations")
			}
			// Form the Wilkinson shift.
			g := (vals[l+1] - vals[l]) / (2 * sub[l])
			r := math.Hypot(g, 1)
			g = vals[m] - vals[l] + sub[l]/(g+math.Copysign(r, g))
			s, c := 1.0, 1.0
			p := 0.0
			for i := m - 1; i >= l; i-- {
				f := s * sub[i]
				b := c * sub[i]
				r = math.Hypot(f, g)
				sub[i+1] = r
				if r == 0 {
					vals[i+1] -= p
					sub[m] = 0
					break
				}
				s = f / r
				c = g / r
				g = vals[i+1] - p
				r = (vals[i]-g)*s + 2*c*b
				p = s * r
				vals[i+1] = g + p
				g = c*r - b
				for _, zk := range z {
					f := zk[i+1]
					zk[i+1] = s*zk[i] + c*f
					zk[i] = c*zk[i] - s*f
				}
			}
			if r == 0 && m-1 >= l {
				continue
			}
			vals[l] -= p
			sub[l] = g
			sub[m] = 0
		}
	}

	// Sort eigenvalues ascending, permuting eigenvectors alongside.
	for i := 0; i < n-1; i++ {
		k := i
		for j := i + 1; j < n; j++ {
			if vals[j] < vals[k] {
				k = j
			}
		}
		if k != i {
			vals[i], vals[k] = vals[k], vals[i]
			for _, zr := range z {
				zr[i], zr[k] = zr[k], zr[i]
			}
		}
	}
	return vals, nil
}
