package ilp

import (
	"context"
	"math"
	"sync"
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
// the all-slack basis. The tableau rows are stored dense, but every loop
// over them touches only entries that can be nonzero (see pivot).
type lpState struct {
	n, rows, ncols   int
	t                [][]float64
	basis            []int
	xB               []float64
	atUpper, inBasis []bool
	colLo, colHi     []float64
	cost, objRow     []float64
	used             []bool // structural columns in an active row (set-up)
	price            []int  // columns that can ever enter, ascending
	nz               []int  // nonzero columns of the last pivot row
}

func (st *lpState) nbVal(j int) float64 {
	if st.atUpper[j] {
		return st.colHi[j]
	}
	return st.colLo[j]
}

// reset sizes the row vectors for a relaxation with n structurals and rows
// rows; setCols sizes the tableau and the column vectors once the column
// count is known.
func (st *lpState) reset(n, rows int) {
	st.n, st.rows = n, rows
	st.basis = resize(st.basis, rows)
	st.xB = resize(st.xB, rows)
	st.used = resize(st.used, n)
}

// setCols sizes and zeroes the tableau and column vectors for ncols
// columns.
func (st *lpState) setCols(ncols int) {
	st.ncols = ncols
	st.t = st.t[:cap(st.t)] // rows past the last length keep their storage
	for len(st.t) < st.rows {
		st.t = append(st.t, nil)
	}
	st.t = st.t[:st.rows]
	for i := range st.t {
		st.t[i] = resize(st.t[i], ncols)
	}
	st.atUpper = resize(st.atUpper, ncols)
	st.inBasis = resize(st.inBasis, ncols)
	st.colLo = resize(st.colLo, ncols)
	st.colHi = resize(st.colHi, ncols)
	st.cost = resize(st.cost, ncols)
	st.objRow = resize(st.objRow, ncols)
	st.price = st.price[:0]
}

// resize returns s with length n, every element zeroed, reallocating with
// headroom only when its capacity falls short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2)
	}
	s = s[:n]
	clear(s)
	return s
}

// lpScratch is the storage of the one LP state a branch-and-bound run
// works on at a time. Every relaxation reuses it, its vectors growing to
// the largest relaxation seen, so steady-state branch and bound allocates
// (almost) nothing per node. Scratches themselves are pooled across runs
// (with pooled-vs-fresh counters for telemetry), so a serving process
// reaches near-zero steady-state allocation in the solver.
type lpScratch struct {
	st    lpState
	fresh bool // true until first reuse; lets callers report pooled-vs-fresh
}

var lpScratchPool = sync.Pool{New: func() any { return &lpScratch{fresh: true} }}

// solveLP minimizes the model objective over the LP relaxation with the
// given per-variable bounds, using a bounded-variable primal simplex on the
// tableau held in scr. Every structural in an active row starts at its
// lower bound; a row that start violates (a negative right-hand side, or
// lower bounds that branching fixed to 1) gets a Big-M artificial. A
// non-zero deadline or a done context aborts long solves with lpIterLimit
// so the branch-and-bound time limit and cancellation hold even when a
// single relaxation is expensive.
//
// Set-up touches only each row's terms: the tableau arrives zeroed, so the
// starting activity, the negation of an infeasible-start row and the
// reduced-cost row are all sums over the row's nonzeros.
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
		// Without variables every row reads 0 <= rhs.
		for _, con := range cons {
			if con.rhs < 0 {
				return lpResult{status: lpInfeasible}
			}
		}
		return lpResult{status: lpOptimal, x: []float64{}}
	}

	// Starting basis: every structural in an active row starts nonbasic at
	// its lower bound, and each row's slack at that point is summed over the
	// row's terms in ascending column order. A row that x = lo satisfies
	// starts on its slack; one that it violates is negated and takes an
	// artificial column instead.
	st := &scr.st
	st.reset(n, rows)
	basis, xB := st.basis, st.xB
	nart := 0
	for i, con := range cons {
		act := 0.0
		for _, tm := range con.terms {
			act += tm.Coef * lo[tm.Var]
			st.used[tm.Var] = true
		}
		if slack := con.rhs - act; slack >= 0 {
			basis[i], xB[i] = n+i, slack
		} else {
			basis[i], xB[i] = n+rows+nart, -slack
			nart++
		}
	}

	// Column layout: [0,n) structural, [n,n+rows) slack, then artificials.
	// Bounds per column; artificials and slacks are [0, +inf). A structural
	// in no active row is already at its optimum once it sits at the bound
	// its cost points to: the upper one when the cost is negative.
	ncols := n + rows + nart
	st.setCols(ncols)
	copy(st.colLo, lo)
	copy(st.colHi, hi)
	for j := n; j < ncols; j++ {
		st.colHi[j] = inf
	}
	for j := 0; j < n; j++ {
		st.atUpper[j] = !st.used[j] && m.obj[j] < 0
	}

	// Big-M cost for artificials, scaled to dominate any structural cost.
	bigM := 1.0
	for _, c := range m.obj {
		bigM += math.Abs(c)
	}
	bigM *= 1e4
	cost := st.cost
	copy(cost, m.obj)
	for j := n + rows; j < ncols; j++ {
		cost[j] = bigM
	}

	// Tableau rows and the reduced-cost row d_j = c_j - c_B' T_j, which
	// pivoting maintains alongside the tableau. Only artificials carry a
	// basic cost at the start.
	objRow := st.objRow
	copy(objRow, cost)
	for i, con := range cons {
		row := st.t[i]
		b := basis[i]
		sign := 1.0
		if b != n+i {
			sign = -1
			row[b] = 1
		}
		for _, tm := range con.terms {
			row[tm.Var] = sign * tm.Coef
		}
		row[n+i] = sign
		st.inBasis[b] = true
		if cb := cost[b]; cb != 0 {
			for _, tm := range con.terms {
				objRow[tm.Var] -= cb * row[tm.Var]
			}
			objRow[n+i] -= cb * row[n+i]
			objRow[b] -= cb * row[b]
		}
	}

	// Pricing list: a structural column in no active row keeps an all-zero
	// tableau column, so its reduced cost stays its objective coefficient,
	// which never makes it eligible from its starting bound; a fixed column
	// never moves. Neither is ever priced.
	for j := 0; j < n; j++ {
		if st.used[j] && lo[j] < hi[j] {
			st.price = append(st.price, j)
		}
	}
	for j := n; j < ncols; j++ {
		st.price = append(st.price, j)
	}

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
	price, nbVal := st.price, st.nbVal

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
		// descent from its current bound. Only the pricing list can qualify,
		// and it is ascending, so Dantzig ties and Bland's first-eligible
		// pick the same column a full scan would.
		enter, dir := -1, 0.0
		bestViol := tol
		for _, j := range price {
			if inBasis[j] {
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
// leave, updating the reduced-cost row alongside. It scales the pivot row,
// records its nonzero columns, and updates the other rows and the
// reduced-cost row over those columns only: every skipped update subtracts
// an exact zero.
func (st *lpState) pivot(leave, enter int) {
	t, objRow := st.t, st.objRow
	prow := t[leave]
	invPiv := 1 / prow[enter]
	nz := st.nz[:0]
	for j, v := range prow {
		if v != 0 {
			prow[j] = v * invPiv
			nz = append(nz, j)
		}
	}
	st.nz = nz
	for i, ri := range t {
		if i == leave {
			continue
		}
		f := ri[enter]
		if f == 0 {
			continue
		}
		for _, j := range nz {
			ri[j] -= f * prow[j]
		}
		ri[enter] = 0 // exact zero against drift
	}
	if f := objRow[enter]; f != 0 {
		for _, j := range nz {
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
