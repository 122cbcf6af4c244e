// Package lptest writes the sparse constraint rows of package lp from
// dense coefficient literals, for tests. It does not import lp, so the
// tests inside package lp can use it too; each test package wraps Sparse
// in a one-line constructor of its own Constraint.
package lptest

// Sparse returns the nonzero entries of a dense coefficient row as
// ascending column indices and their values, the form of lp.Constraint's
// Idx and Val.
func Sparse(coeffs []float64) (idx []int32, val []float64) {
	for j, v := range coeffs {
		if v != 0 {
			idx, val = append(idx, int32(j)), append(val, v)
		}
	}
	return idx, val
}
