package lp

import "math"

// Product-form factorization of the simplex basis.
//
// The basis matrix B (one column per basis position) is represented by
// its inverse in product form: refactorize builds m Gauss–Jordan eta
// matrices E_1..E_m with partial (largest-entry) pivoting so that
// E_m···E_1·B = P, where P is the row permutation recorded in rowOfPos
// (position p pivoted on row rowOfPos[p]). Each basis exchange appends
// one PFI update eta U in *position* space instead of recomputing the
// factorization, and the eta file is rebuilt from scratch every
// refactorEvery updates (bounding both fill-in and roundoff drift):
//
//	B^{-1} = U_k ··· U_1 · P^T · E_m ··· E_1
//
// FTRAN applies that product to a column (original-row input, basis-
// position output); BTRAN applies the transpose in reverse (basis-
// position input, original-row output — which is exactly where the dual
// multipliers live, so duals need no extra permutation bookkeeping).
type eta struct {
	row    int32 // pivot index: original row (base etas) or basis position (updates)
	piv    float64
	lo, hi int32 // off-pivot nonzeros: entries [lo, hi) of the owning etaFile
}

// etaFile is a sequence of etas whose off-pivot nonzeros share one
// backing store per file. reset rewinds it without freeing anything, so
// a workspace reused across refactorizations and solves stops
// allocating once its stores have grown to the largest factor it sees.
type etaFile struct {
	etas []eta
	ind  []int32
	val  []float64
}

func (f *etaFile) reset() {
	f.etas = f.etas[:0]
	f.ind = f.ind[:0]
	f.val = f.val[:0]
}

// push appends the eta with pivot index r built from pivot vector w,
// capturing w's off-pivot nonzeros.
func (f *etaFile) push(r int32, w []float64) {
	lo := int32(len(f.ind))
	for i, v := range w {
		if v != 0 && int32(i) != r {
			f.ind = append(f.ind, int32(i))
			f.val = append(f.val, v)
		}
	}
	f.etas = append(f.etas, eta{row: r, piv: w[r], lo: lo, hi: int32(len(f.ind))})
}

// apply computes v <- E_k·v for the Gauss–Jordan eta k built from pivot
// vector w: (E·v)[row] = v[row]/piv, (E·v)[i] = v[i] - w[i]·v[row]/piv.
func (f *etaFile) apply(k int, v []float64) {
	e := &f.etas[k]
	t := v[e.row] / e.piv
	v[e.row] = t
	if t == 0 {
		return
	}
	val := f.val[e.lo:e.hi]
	for n, i := range f.ind[e.lo:e.hi] {
		v[i] -= val[n] * t
	}
}

// applyT computes v <- E_k^T·v: only the pivot entry changes,
// (E^T·v)[row] = (v[row] - Σ w[i]·v[i]) / piv.
func (f *etaFile) applyT(k int, v []float64) {
	e := &f.etas[k]
	s := v[e.row]
	val := f.val[e.lo:e.hi]
	for n, i := range f.ind[e.lo:e.hi] {
		s -= val[n] * v[i]
	}
	v[e.row] = s / e.piv
}

// refactorEvery is the eta-file length that triggers a refactorization.
const refactorEvery = 64

// basisFactor is the factorized basis: base etas from the last
// refactorization plus the PFI update etas appended since.
type basisFactor struct {
	m        int
	base     etaFile
	rowOfPos []int32
	updates  etaFile
	pivoted  []bool    // refactorize scratch
	work     []float64 // refactorize scratch

	// While shared, base reads another factor's base etas (see share)
	// and own keeps this factor's store until it writes base again.
	own    etaFile
	shared bool
}

// reset sizes the factor for m rows, reusing its buffers.
func (f *basisFactor) reset(m int) {
	f.m = m
	f.rowOfPos = resize(f.rowOfPos, m)
	f.pivoted = resize(f.pivoted, m)
	f.work = resize(f.work, m)
	f.clear()
}

// clear empties both eta files, back in the factor's own store.
func (f *basisFactor) clear() {
	if f.shared {
		f.base, f.own, f.shared = f.own, etaFile{}, false
	}
	f.base.reset()
	f.updates.reset()
}

// share makes f the factorization src holds, without copying src's base
// etas: f reads them in place and copies only the row permutation. The
// owner of src must leave it unchanged while f uses it. f's own update
// etas start empty, and f's next reset, identity or refactorization
// writes its own store again, so f never writes src.
func (f *basisFactor) share(src *basisFactor) {
	if !f.shared {
		f.own, f.shared = f.base, true
	}
	f.base = src.base
	copy(f.rowOfPos, src.rowOfPos)
	f.updates.reset()
}

// identity resets the factorization to B = I with the natural row order
// (the all-slack starting basis: every slack column is a unit column).
func (f *basisFactor) identity() {
	f.clear()
	for p := range f.rowOfPos {
		f.rowOfPos[p] = int32(p)
	}
}

// refactorize rebuilds the eta file from scratch for the given basis
// columns. Each step FTRANs the next basis column through the etas built
// so far, pivots on the largest remaining entry, and records one
// Gauss–Jordan eta; it fails (returns false) when the largest available
// pivot falls below minPiv — a singular or numerically unsafe basis.
//
// A basic slack whose row no earlier column pivoted on skips all of that.
// Its column is the unit vector e_r, which every eta so far leaves
// unchanged (each pivots on another row, where e_r is zero), so it would
// pivot on r with pivot 1 and no off-pivot entries: an identity eta,
// whose application is an exact no-op. The slack takes row r and no eta
// is pushed, which leaves every FTRAN and BTRAN bit-identical.
func (f *basisFactor) refactorize(md *Model, basis []int32, minPiv float64) bool {
	f.clear()
	clear(f.pivoted)
	v := f.work
	for p := 0; p < f.m; p++ {
		if r := basis[p] - int32(md.n); r >= 0 && !f.pivoted[r] && minPiv < 1 {
			f.rowOfPos[p] = r
			f.pivoted[r] = true
			continue
		}
		md.scatterCol(int(basis[p]), v)
		for e := range f.base.etas {
			f.base.apply(e, v)
		}
		r, best := -1, minPiv
		for i := 0; i < f.m; i++ {
			if !f.pivoted[i] {
				if a := math.Abs(v[i]); a > best {
					r, best = i, a
				}
			}
		}
		if r < 0 {
			return false
		}
		f.base.push(int32(r), v)
		f.rowOfPos[p] = int32(r)
		f.pivoted[r] = true
	}
	return true
}

// update appends the PFI eta for replacing the basis column at position p,
// built from the FTRANed entering column w (position space).
func (f *basisFactor) update(p int, w []float64) { f.updates.push(int32(p), w) }

// pending returns the number of update etas since the last
// refactorization.
func (f *basisFactor) pending() int { return len(f.updates.etas) }

// needsRefactor reports that the eta file is due for a rebuild.
func (f *basisFactor) needsRefactor() bool { return f.pending() >= refactorEvery }

// ftran solves B·w = v: vrow is the input in original-row space (it is
// clobbered), wpos receives the result by basis position.
func (f *basisFactor) ftran(vrow, wpos []float64) {
	for e := range f.base.etas {
		f.base.apply(e, vrow)
	}
	for p := 0; p < f.m; p++ {
		wpos[p] = vrow[f.rowOfPos[p]]
	}
	for e := range f.updates.etas {
		f.updates.apply(e, wpos)
	}
}

// btran solves B^T·y = c: cpos is the input by basis position (it is
// clobbered), yrow receives the result in original-row space.
func (f *basisFactor) btran(cpos, yrow []float64) {
	for e := len(f.updates.etas) - 1; e >= 0; e-- {
		f.updates.applyT(e, cpos)
	}
	clear(yrow)
	for p := 0; p < f.m; p++ {
		yrow[f.rowOfPos[p]] = cpos[p]
	}
	for e := len(f.base.etas) - 1; e >= 0; e-- {
		f.base.applyT(e, yrow)
	}
}
