package spice

import (
	"fmt"
	"math"
)

// solver holds the MNA system of one analysis. Row/column k corresponds to
// node k+1 for k < nn-1 and to voltage-source branch k-(nn-1) afterwards.
//
// The partial-pivot LU follows a pivot plan: the symbolic factorisation of
// the matrix's structural pattern under the last observed pivot sequence.
// It scans only the structurally possible pivot candidates, eliminates only
// structurally nonzero entries and back-substitutes along the U row
// patterns. Every skipped operation would have compared, added or
// subtracted an exact +0, so the result is bit-identical to the dense
// loops. Since the plan fixes the pivot order, it also resolves every row
// to the place it occupies in storage, so rows are never swapped: each
// entry still receives exactly the dense loops' arithmetic, at another
// address. Where the argument does not hold — a pivot the plan did not
// predict, a non-finite multiplier, a non-finite solution — the rows are
// moved into the dense loops' order and the solve finishes with them (see
// factor and solve).
type solver struct {
	dim int
	// a (dim×dim, row-major) and b are the working system; each has one
	// trailing sink slot that absorbs stamps on ground rows and columns
	// (see Circuit.stampTables) and that the factorisation never reads.
	a []float64
	b []float64
	x []float64
	// base is the linear template copied into a before each Newton
	// iteration, rhs the right-hand side copied into b (see
	// Circuit.stampLinear and Circuit.stampRHS).
	base []float64
	rhs  []float64
	// pat is the structural pattern of every matrix handed to solve
	// (dim×dim): an entry outside it is exactly +0.
	pat []bool
	// plan is the pivot plan for the last observed pivot sequence; nil
	// until the first factorisation.
	plan *pivotPlan
	// seq records the pivot row chosen at each column by the current
	// factorisation.
	seq []int32
	// perm and tmp are scratch for moving rows into the dense order.
	perm []int32
	tmp  []float64

	stats luStats
}

// luStats counts how the solves of one analysis went.
type luStats struct {
	// solves counts solve calls; dense those finished with the dense
	// loops (the first, unplanned one included); replans plan rebuilds;
	// nonFinite solves that left the plan over a non-finite multiplier,
	// pivot inverse or unknown.
	solves, dense, replans, nonFinite int
}

// pivotPlan is the symbolic LU factorisation of a structural pattern under
// one pivot sequence. In the dense loops' terms, step c owns three
// consecutive runs of idx:
//
//	scan: the rows r > c structurally nonzero in column c before the
//	      swap, ascending: the pivot candidates after the diagonal, as
//	      storage offsets of their column-c entries;
//	upd:  the rows r > c structurally nonzero in column c after the
//	      swap, ascending: the rows to eliminate, as storage rows;
//	cols: the columns k > c of the pivot row. Row c is final in U from
//	      this step on, so this is also its back-substitution pattern.
type pivotPlan struct {
	idx   []int32
	steps []planStep
}

// planStep is one column of a pivotPlan. Each run of idx ends at the
// given offset and starts where the previous one ends.
type planStep struct {
	// row is the pivot row in the dense loops' order; diag and piv are
	// the storage offsets of the diagonal entry before the swap and of
	// the pivot entry; prow is the storage row of the pivot row.
	row, diag, piv, prow int32
	scan, upd, cols      int32
}

func newSolver(dim int, pat []bool) *solver {
	return &solver{
		dim:  dim,
		a:    make([]float64, dim*dim+1),
		b:    make([]float64, dim+1),
		base: make([]float64, dim*dim+1),
		rhs:  make([]float64, dim+1),
		x:    make([]float64, dim),
		pat:  pat,
		seq:  make([]int32, dim),
		perm: make([]int32, dim),
	}
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return v-v == 0 }

func singular(col int) error { return fmt.Errorf("singular MNA matrix at column %d", col) }

// solve performs an in-place partial-pivot LU solve of the stamped system.
// The returned slice is reused between calls.
func (s *solver) solve() ([]float64, error) {
	s.stats.solves++
	dense, err := s.factor()
	if err != nil {
		return nil, err
	}
	if !dense {
		if !s.substitute() {
			// A non-finite unknown: skipped 0·Inf terms would have made
			// NaNs the dense loops report, possibly at an earlier row.
			s.stats.nonFinite++
			s.unpermute(s.dim)
			s.substituteDense()
		}
		return s.x, nil
	}
	s.stats.dense++
	s.substituteDense()
	if p := s.plan; p == nil || !p.follows(s.seq) {
		s.plan = buildPlan(s.dim, s.pat, s.seq)
		s.stats.replans++
	}
	return s.x, nil
}

// factor runs the LU factorisation along the plan and reports whether it
// had to finish with the dense loops.
func (s *solver) factor() (dense bool, err error) {
	p := s.plan
	if p == nil {
		return true, s.factorDense(0, 0)
	}
	n, a, b, idx := s.dim, s.a, s.b, p.idx
	lo := int32(0)
	for c := range p.steps {
		st := &p.steps[c]
		piv, pivVal := st.diag, math.Abs(a[st.diag])
		for _, o := range idx[lo:st.scan] {
			if v := math.Abs(a[o]); v > pivVal {
				pivVal = v
				piv = o
			}
		}
		if pivVal == 0 {
			return false, singular(c)
		}
		if piv != st.piv {
			return true, s.leavePlan(c, false, 0)
		}
		upd := idx[st.scan:st.upd]
		lo = st.cols
		// With rows to eliminate, or a pivot so small (or NaN) that its
		// inverse may overflow, the dense loops' 1/pivot is needed; a
		// non-finite one would give every row below a 0·Inf = NaN
		// multiplier.
		po := int(st.prow) * n
		if len(upd) == 0 && pivVal >= 1e-300 {
			continue
		}
		inv := 1 / a[po+c]
		if !finite(inv) {
			s.stats.nonFinite++
			return true, s.leavePlan(c, true, -1)
		}
		bc := b[st.prow]
		cols := idx[st.upd:st.cols]
		for _, r := range upd {
			ro := int(r) * n
			f := a[ro+c] * inv
			if f == 0 {
				continue
			}
			if !finite(f) {
				// f·0 = NaN would fill the row's structural zeros.
				s.stats.nonFinite++
				return true, s.leavePlan(c, true, r)
			}
			// The eliminated entry a[ro+c] is left in place: nothing
			// reads below the diagonal of a finished column.
			for _, k := range cols {
				a[ro+int(k)] -= f * a[po+int(k)]
			}
			b[r] -= f * bc
		}
	}
	return false, nil
}

// leavePlan finishes a factorisation that followed the plan up to column
// col with the dense loops. If pivoted, column col is pivoted too and its
// elimination stopped before storage row stop (-1: before its first row).
func (s *solver) leavePlan(col int, pivoted bool, stop int32) error {
	if !pivoted {
		s.unpermute(col)
		return s.factorDense(col, col)
	}
	perm := s.unpermute(col + 1)
	r0 := col + 1
	for r := col + 1; stop >= 0 && r < s.dim; r++ {
		if perm[r] == stop {
			r0 = r
			break
		}
	}
	return s.factorDense(col, r0)
}

// unpermute moves the rows, which the plan's first steps steps left in
// place, into the dense loops' order, records those steps' pivots in seq
// and returns the permutation applied (dense row -> storage row).
func (s *solver) unpermute(steps int) []int32 {
	n, perm := s.dim, s.perm
	for i := range perm {
		perm[i] = int32(i)
	}
	for c, st := range s.plan.steps[:steps] {
		s.seq[c] = st.row
		perm[c], perm[st.row] = perm[st.row], perm[c]
	}
	if s.tmp == nil {
		s.tmp = make([]float64, n*n+n)
	}
	ta, tb := s.tmp[:n*n], s.tmp[n*n:]
	for r, pr := range perm {
		copy(ta[r*n:(r+1)*n], s.a[int(pr)*n:(int(pr)+1)*n])
		tb[r] = s.b[pr]
	}
	copy(s.a, ta)
	copy(s.b, tb)
	return perm
}

// factorDense finishes the factorisation with the dense loops, from column
// col on. When r0 > col, column col is already pivoted and rows col+1..r0-1
// already eliminated; otherwise column col starts with its pivot search.
func (s *solver) factorDense(col, r0 int) error {
	n, a, b := s.dim, s.a, s.b
	for ; col < n; col++ {
		if r0 <= col {
			pivRow := col
			pivVal := math.Abs(a[col*n+col])
			for r := col + 1; r < n; r++ {
				if v := math.Abs(a[r*n+col]); v > pivVal {
					pivVal = v
					pivRow = r
				}
			}
			if pivVal == 0 {
				return singular(col)
			}
			s.seq[col] = int32(pivRow)
			if pivRow != col {
				for k := col; k < n; k++ {
					a[col*n+k], a[pivRow*n+k] = a[pivRow*n+k], a[col*n+k]
				}
				b[col], b[pivRow] = b[pivRow], b[col]
			}
			r0 = col + 1
		}
		inv := 1 / a[col*n+col]
		for r := r0; r < n; r++ {
			f := a[r*n+col] * inv
			if f == 0 {
				continue
			}
			a[r*n+col] = 0
			for k := col + 1; k < n; k++ {
				a[r*n+k] -= f * a[col*n+k]
			}
			b[r] -= f * b[col]
		}
		r0 = 0
	}
	return nil
}

// substitute back-substitutes along the plan's U row patterns. It reports
// false, leaving x partly written, as soon as an unknown is non-finite.
func (s *solver) substitute() bool {
	n, a, b, x := s.dim, s.a, s.b, s.x
	p := s.plan
	for r := n - 1; r >= 0; r-- {
		st := &p.steps[r]
		row := a[int(st.prow)*n : int(st.prow+1)*n]
		sum := b[st.prow]
		if sum == 0 && math.Signbit(sum) {
			// From -0, subtracting a skipped +0·x = -0 would give +0:
			// take every term, as the dense loop does.
			for k := r + 1; k < n; k++ {
				sum -= row[k] * x[k]
			}
		} else {
			for _, k := range p.idx[st.upd:st.cols] {
				sum -= row[k] * x[k]
			}
		}
		v := sum / row[r]
		if !finite(v) {
			return false
		}
		x[r] = v
	}
	return true
}

// substituteDense is the dense back-substitution.
func (s *solver) substituteDense() {
	n, a, b, x := s.dim, s.a, s.b, s.x
	for r := n - 1; r >= 0; r-- {
		sum := b[r]
		for k := r + 1; k < n; k++ {
			sum -= a[r*n+k] * x[k]
		}
		x[r] = sum / a[r*n+r]
	}
}

// follows reports whether the plan was built for pivot sequence seq.
func (p *pivotPlan) follows(seq []int32) bool {
	for c, st := range p.steps {
		if st.row != seq[c] {
			return false
		}
	}
	return true
}

// buildPlan runs the symbolic factorisation of the n×n pattern pat under
// the pivot sequence seq, tracking where each row sits in storage when rows
// are never swapped.
func buildPlan(n int, pat []bool, seq []int32) *pivotPlan {
	w := append([]bool(nil), pat...) // storage layout
	perm := make([]int, n)           // dense row -> storage row
	for i := range perm {
		perm[i] = i
	}
	p := &pivotPlan{steps: make([]planStep, n)}
	add := func(v int) { p.idx = append(p.idx, int32(v)) }
	for c := 0; c < n; c++ {
		st := &p.steps[c]
		pr := int(seq[c])
		st.row = int32(pr)
		st.diag = int32(perm[c]*n + c)
		st.piv = int32(perm[pr]*n + c)
		for r := c + 1; r < n; r++ {
			if o := perm[r]*n + c; w[o] {
				add(o)
			}
		}
		st.scan = int32(len(p.idx))
		perm[c], perm[pr] = perm[pr], perm[c]
		prow := perm[c]
		st.prow = int32(prow)
		for r := c + 1; r < n; r++ {
			if w[perm[r]*n+c] {
				add(perm[r])
			}
		}
		st.upd = int32(len(p.idx))
		for k := c + 1; k < n; k++ {
			if w[prow*n+k] {
				add(k)
			}
		}
		st.cols = int32(len(p.idx))
		for _, r := range p.idx[st.scan:st.upd] {
			w[int(r)*n+c] = false
			for _, k := range p.idx[st.upd:st.cols] {
				w[int(r)*n+int(k)] = true
			}
		}
	}
	return p
}
