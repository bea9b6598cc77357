package ilp

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
)

// lpStatus reports the outcome of an LP relaxation solve.
type lpStatus int

const (
	lpOptimal lpStatus = iota
	lpInfeasible
	lpIterLimit
)

// lpResult carries the solution of one LP relaxation.
type lpResult struct {
	status lpStatus
	x      []float64 // structural variable values
	obj    float64
	iters  int // simplex iterations spent (pivots + bound flips)
}

// lpState is one simplex tableau with its basis bookkeeping, built from
// the all-slack basis. All storage comes from an lpScratch freelist so
// steady-state branch-and-bound allocates (almost) nothing per node.
type lpState struct {
	n, rows, ncols int
	t              [][]float64
	basis          []int
	xB             []float64
	atUpper        []bool
	inBasis        []bool
	colLo, colHi   []float64
	cost, objRow   []float64
}

func (st *lpState) nbVal(j int) float64 {
	if st.atUpper[j] {
		return st.colHi[j]
	}
	return st.colLo[j]
}

// lpScratch recycles tableau rows and bookkeeping vectors across the many
// LP solves of one branch-and-bound run. Scratches themselves are pooled
// across runs (with pooled-vs-fresh counters for telemetry), so a serving
// process reaches near-zero steady-state allocation in the solver.
type lpScratch struct {
	vecs   [][]float64
	ints   [][]int
	bools  [][]bool
	states []*lpState
	fresh  bool // true until first reuse; lets callers report pooled-vs-fresh
}

var (
	lpScratchPool = sync.Pool{New: func() any {
		scratchFresh.Add(1)
		return &lpScratch{fresh: true}
	}}
	scratchGets  atomic.Int64
	scratchFresh atomic.Int64
)

func getScratch() *lpScratch {
	scratchGets.Add(1)
	return lpScratchPool.Get().(*lpScratch)
}

func putScratch(s *lpScratch) { lpScratchPool.Put(s) }

// ScratchCounters reports cumulative simplex-scratch acquisitions and how
// many had to allocate fresh — the pooled-vs-fresh telemetry split.
func ScratchCounters() (gets, fresh int64) {
	return scratchGets.Load(), scratchFresh.Load()
}

func (s *lpScratch) vec(size int) []float64 {
	for len(s.vecs) > 0 {
		v := s.vecs[len(s.vecs)-1]
		s.vecs = s.vecs[:len(s.vecs)-1]
		if cap(v) >= size {
			v = v[:size]
			for i := range v {
				v[i] = 0
			}
			return v
		}
	}
	return make([]float64, size)
}

func (s *lpScratch) ivec(size int) []int {
	for len(s.ints) > 0 {
		v := s.ints[len(s.ints)-1]
		s.ints = s.ints[:len(s.ints)-1]
		if cap(v) >= size {
			v = v[:size]
			for i := range v {
				v[i] = 0
			}
			return v
		}
	}
	return make([]int, size)
}

func (s *lpScratch) bvec(size int) []bool {
	for len(s.bools) > 0 {
		v := s.bools[len(s.bools)-1]
		s.bools = s.bools[:len(s.bools)-1]
		if cap(v) >= size {
			v = v[:size]
			for i := range v {
				v[i] = false
			}
			return v
		}
	}
	return make([]bool, size)
}

// newState hands out a state shell with rows/vectors sized for the solve.
func (s *lpScratch) newState(n, rows, ncols int) *lpState {
	var st *lpState
	if k := len(s.states); k > 0 {
		st = s.states[k-1]
		s.states = s.states[:k-1]
	} else {
		st = new(lpState)
	}
	st.n, st.rows, st.ncols = n, rows, ncols
	if cap(st.t) >= rows {
		st.t = st.t[:rows]
	} else {
		st.t = make([][]float64, rows)
	}
	for i := range st.t {
		st.t[i] = s.vec(ncols)
	}
	st.basis = s.ivec(rows)
	st.xB = s.vec(rows)
	st.atUpper = s.bvec(ncols)
	st.inBasis = s.bvec(ncols)
	st.colLo = s.vec(ncols)
	st.colHi = s.vec(ncols)
	st.cost = s.vec(ncols)
	st.objRow = s.vec(ncols)
	return st
}

// free returns every slice of st to the freelists.
func (s *lpScratch) free(st *lpState) {
	if st == nil {
		return
	}
	for i := range st.t {
		if st.t[i] != nil {
			s.vecs = append(s.vecs, st.t[i])
			st.t[i] = nil
		}
	}
	st.t = st.t[:0]
	s.ints = append(s.ints, st.basis)
	s.vecs = append(s.vecs, st.xB, st.colLo, st.colHi, st.cost, st.objRow)
	s.bools = append(s.bools, st.atUpper, st.inBasis)
	st.basis, st.xB, st.colLo, st.colHi, st.cost, st.objRow = nil, nil, nil, nil, nil, nil
	st.atUpper, st.inBasis = nil, nil
	s.states = append(s.states, st)
}

// solveLP minimizes the model objective over the LP relaxation with the
// given per-variable bounds, using a bounded-variable primal simplex on a
// dense tableau drawn from scr and returned to it before solveLP returns.
// Rows that start infeasible (possible once branching fixes lower bounds to
// 1) get Big-M artificial variables. A non-zero deadline or a done context
// aborts long solves with lpIterLimit so the branch-and-bound time limit and
// cancellation hold even when a single relaxation is expensive.
func (m *Model) solveLP(ctx context.Context, cons []constraint, lo, hi []float64, deadline time.Time, scr *lpScratch) lpResult {
	// Fault seam: an injected error reports this relaxation infeasible (the
	// node is pruned; at the root the whole solve turns infeasible), a delay
	// stretches the relaxation past the branch-and-bound deadline.
	if err := faultinject.Fire(ctx, faultinject.Simplex); err != nil {
		return lpResult{status: lpInfeasible}
	}
	n := len(m.obj)
	rows := len(cons)
	if n == 0 {
		return lpResult{status: lpOptimal, x: nil, obj: 0}
	}

	// Column layout: [0,n) structural, [n,n+rows) slack, then artificials.
	// Bounds per column; artificials and slacks are [0, +inf).
	ncols := n + rows
	st := scr.newState(n, rows, ncols)
	colLo := st.colLo
	colHi := st.colHi
	copy(colLo, lo)
	copy(colHi, hi)
	for j := n; j < ncols; j++ {
		colHi[j] = inf
	}

	// Big-M cost for artificials, scaled to dominate any structural cost.
	bigM := 1.0
	for _, c := range m.obj {
		bigM += math.Abs(c)
	}
	bigM *= 1e4

	cost := st.cost
	copy(cost, m.obj)

	// Dense tableau rows plus initial basic values.
	t := st.t
	basis := st.basis
	xB := st.xB
	atUpper := st.atUpper
	for j := 0; j < n; j++ {
		// Start nonbasic structurals at the bound nearer the objective
		// descent direction to reduce iterations.
		if m.obj[j] < 0 && !math.IsInf(hi[j], 1) {
			atUpper[j] = true
		}
		if lo[j] == hi[j] {
			atUpper[j] = false
		}
	}
	nbVal := func(j int) float64 {
		if atUpper[j] {
			return colHi[j]
		}
		return colLo[j]
	}

	for i, con := range cons {
		row := t[i]
		t[i] = nil // mark unfilled for the artificial-extension pass
		for _, tm := range con.terms {
			row[tm.Var] += tm.Coef
		}
		row[n+i] = 1
		act := 0.0
		for j := 0; j < n; j++ {
			act += row[j] * nbVal(j)
		}
		slack := con.rhs - act
		if slack >= 0 {
			basis[i] = n + i
			xB[i] = slack
			t[i] = row
			continue
		}
		// Infeasible start: negate the row and give it an artificial.
		for j := range row {
			row[j] = -row[j]
		}
		art := len(colLo)
		colLo = append(colLo, 0)
		colHi = append(colHi, inf)
		cost = append(cost, bigM)
		atUpper = append(atUpper, false)
		for k := range t {
			if t[k] != nil {
				t[k] = append(t[k], 0)
			}
		}
		for len(row) <= art {
			row = append(row, 0)
		}
		row[art] = 1
		basis[i] = art
		xB[i] = -slack
		t[i] = row
	}
	// Rows created before a later artificial column appeared were extended
	// in the loop; normalize lengths for safety.
	ncols = len(colLo)
	for i := range t {
		for len(t[i]) < ncols {
			t[i] = append(t[i], 0)
		}
	}
	st.ncols = ncols
	st.colLo, st.colHi, st.cost, st.atUpper = colLo, colHi, cost, atUpper

	inBasis := st.inBasis
	for len(inBasis) < ncols {
		inBasis = append(inBasis, false)
	}
	for _, b := range basis {
		inBasis[b] = true
	}
	st.inBasis = inBasis

	// Objective row (reduced costs): d_j = c_j - c_B' T_j, maintained by
	// pivoting alongside the tableau.
	objRow := st.objRow
	for len(objRow) < ncols {
		objRow = append(objRow, 0)
	}
	copy(objRow, cost)
	for i, b := range basis {
		cb := cost[b]
		if cb == 0 {
			continue
		}
		for j := 0; j < ncols; j++ {
			objRow[j] -= cb * t[i][j]
		}
	}
	st.objRow = objRow

	defer scr.free(st)
	status, iter := st.primal(ctx, deadline)
	if status != lpOptimal {
		return lpResult{status: status, iters: iter}
	}
	return st.extract(m, iter)
}

// primal runs the bounded-variable primal simplex loop on the state until
// optimality, iteration limit, deadline, or cancellation. It returns the
// terminal status (lpOptimal or lpIterLimit) and the iteration count.
func (st *lpState) primal(ctx context.Context, deadline time.Time) (lpStatus, int) {
	rows, ncols := st.rows, st.ncols
	t, basis, xB := st.t, st.basis, st.xB
	atUpper, inBasis := st.atUpper, st.inBasis
	colLo, colHi, objRow := st.colLo, st.colHi, st.objRow
	nbVal := st.nbVal

	maxIter := 200 * (rows + ncols + 10)
	blandAfter := 20 * (rows + ncols + 10)
	iter := 0
	for ; ; iter++ {
		if iter > maxIter {
			return lpIterLimit, iter
		}
		if iter%64 == 63 {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return lpIterLimit, iter
			}
			if ctx.Err() != nil {
				return lpIterLimit, iter
			}
		}
		useBland := iter > blandAfter

		// Entering variable: a nonbasic column whose reduced cost allows
		// descent from its current bound.
		enter, dir := -1, 0.0
		bestViol := tol
		for j := 0; j < ncols; j++ {
			if inBasis[j] || colLo[j] == colHi[j] {
				continue
			}
			var viol float64
			var d float64
			if !atUpper[j] && objRow[j] < -tol {
				viol, d = -objRow[j], 1
			} else if atUpper[j] && objRow[j] > tol {
				viol, d = objRow[j], -1
			} else {
				continue
			}
			if useBland {
				enter, dir = j, d
				break
			}
			if viol > bestViol {
				bestViol, enter, dir = viol, j, d
			}
		}
		if enter == -1 {
			break // optimal
		}

		// Ratio test: the entering variable moves by dir*tstep from its
		// bound; basic variables must stay within their own bounds and the
		// entering variable within its span.
		tstep := colHi[enter] - colLo[enter]
		leave := -1
		leaveToUpper := false
		for i := 0; i < rows; i++ {
			coeff := t[i][enter] * dir
			bi := basis[i]
			var limit float64
			var toUpper bool
			switch {
			case coeff > tol:
				limit, toUpper = (xB[i]-colLo[bi])/coeff, false
			case coeff < -tol:
				if math.IsInf(colHi[bi], 1) {
					continue
				}
				limit, toUpper = (colHi[bi]-xB[i])/-coeff, true
			default:
				continue
			}
			if limit < 0 {
				limit = 0
			}
			// Strictly better limit wins; near-ties prefer the smaller
			// basis index (Bland-style, guards against cycling).
			if limit < tstep-tol || (limit < tstep+tol && leave != -1 && basis[i] < basis[leave]) {
				if limit < tstep {
					tstep = limit
				}
				leave, leaveToUpper = i, toUpper
			}
		}
		if math.IsInf(tstep, 1) {
			// Unbounded descent cannot happen with bounded structurals and
			// slack-only rays; treat as numeric trouble.
			return lpIterLimit, iter
		}

		if leave == -1 {
			// Bound flip: entering moves to its opposite bound.
			delta := dir * tstep
			for i := 0; i < rows; i++ {
				xB[i] -= t[i][enter] * delta
			}
			atUpper[enter] = !atUpper[enter]
			continue
		}

		// Pivot: entering becomes basic at value bound + dir*tstep.
		newVal := nbVal(enter) + dir*tstep
		delta := dir * tstep
		for i := 0; i < rows; i++ {
			if i != leave {
				xB[i] -= t[i][enter] * delta
			}
		}
		leavingVar := basis[leave]
		inBasis[leavingVar] = false
		atUpper[leavingVar] = leaveToUpper
		basis[leave] = enter
		inBasis[enter] = true
		xB[leave] = newVal

		st.pivot(leave, enter)
	}
	return lpOptimal, iter
}

// pivot performs the tableau row reduction making column enter basic in row
// leave, updating the reduced-cost row alongside.
func (st *lpState) pivot(leave, enter int) {
	t, objRow, ncols := st.t, st.objRow, st.ncols
	piv := t[leave][enter]
	prow := t[leave]
	invPiv := 1 / piv
	for j := 0; j < ncols; j++ {
		prow[j] *= invPiv
	}
	for i := range t {
		if i == leave {
			continue
		}
		f := t[i][enter]
		if f == 0 {
			continue
		}
		ri := t[i]
		for j := 0; j < ncols; j++ {
			ri[j] -= f * prow[j]
		}
		ri[enter] = 0 // exact zero against drift
	}
	if f := objRow[enter]; f != 0 {
		for j := 0; j < ncols; j++ {
			objRow[j] -= f * prow[j]
		}
		objRow[enter] = 0
	}
}

// extract reads the structural solution off an optimal state. Any
// artificial still carrying value means the constraints cannot be satisfied
// under the given bounds.
func (st *lpState) extract(m *Model, iter int) lpResult {
	n, rows := st.n, st.rows
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		x[j] = st.nbVal(j)
	}
	for i, b := range st.basis {
		if b < n {
			x[b] = st.xB[i]
		} else if b >= n+rows && st.xB[i] > 1e-6 {
			return lpResult{status: lpInfeasible, iters: iter}
		}
	}
	obj := 0.0
	lo, hi := st.colLo, st.colHi
	for j := 0; j < n; j++ {
		// Clamp tiny numeric drift back into bounds.
		if x[j] < lo[j] {
			x[j] = lo[j]
		}
		if x[j] > hi[j] {
			x[j] = hi[j]
		}
		obj += m.obj[j] * x[j]
	}
	return lpResult{status: lpOptimal, x: x, obj: obj, iters: iter}
}
