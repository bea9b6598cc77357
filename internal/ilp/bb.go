package ilp

import (
	"context"
	"errors"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// Status reports the outcome of an ILP solve.
type Status int

const (
	// Optimal means the returned solution is proven optimal.
	Optimal Status = iota
	// Feasible means a solution was found but the time limit stopped the
	// proof of optimality (the paper's "> 3600 s" rows).
	Feasible
	// Infeasible means no assignment satisfies the constraints.
	Infeasible
	// TimedOut means the time limit expired before any solution was found.
	TimedOut
	// Canceled means the caller's context was canceled mid-solve. The best
	// incumbent found so far, if any, is still attached to the result.
	Canceled
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible"
	case Infeasible:
		return "infeasible"
	case Canceled:
		return "canceled"
	default:
		return "timed-out"
	}
}

// SolveOptions tunes the branch-and-bound search.
type SolveOptions struct {
	// Ctx, when non-nil, carries the caller's cancellation signal and
	// deadline into the search: cancellation yields the Canceled status,
	// while a context deadline behaves exactly like TimeLimit (whichever
	// expires first wins).
	Ctx context.Context
	// TimeLimit bounds the wall-clock solve time. Zero means no limit.
	TimeLimit time.Duration
	// Incumbent optionally provides a known-feasible starting solution
	// whose objective primes the pruning bound.
	Incumbent []float64
}

// Result is the outcome of Solve.
type Result struct {
	// Status classifies the outcome.
	Status Status
	// X is the best assignment found (nil unless Optimal or Feasible).
	X []float64
	// Obj is the objective of X.
	Obj float64
	// Nodes is the number of B&B nodes explored.
	Nodes int
	// Runtime is the wall-clock solve duration.
	Runtime time.Duration
}

// Solve runs branch and bound with LP-relaxation bounds on the model.
// Integer variables are branched on the most fractional LP value;
// continuous variables keep their LP values (our models only use them for
// product terms whose integrality follows from the binaries).
func Solve(m *Model, opt SolveOptions) Result {
	start := time.Now()
	ctx := opt.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := time.Time{}
	if opt.TimeLimit > 0 {
		deadline = start.Add(opt.TimeLimit)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	n := m.NumVars()

	var bestX []float64
	bestObj := inf
	if opt.Incumbent != nil && m.Feasible(opt.Incumbent, 1e-6) {
		bestX = append([]float64(nil), opt.Incumbent...)
		bestObj = m.Eval(opt.Incumbent)
	}

	rootLo := make([]float64, n)
	rootHi := make([]float64, n)
	for i := range rootHi {
		rootHi[i] = 1
	}
	stack := []bbNode{{lo: rootLo, hi: rootHi}}
	nodes := 0
	timedOut := false
	canceled := false
	pruned := 0
	simplexIters := 0
	lazyActivated := 0
	lpSolves := 0
	scr := lpScratchPool.Get().(*lpScratch)
	scrFresh := scr.fresh
	scr.fresh = false
	defer lpScratchPool.Put(scr)
	rec := obs.FromContext(ctx)
	defer func() {
		if rec == nil {
			return
		}
		// One ilp.Solve call per monolithic exact solve, many per
		// hierarchical run (one per tile) — counters accumulate across them.
		rec.Add(obs.CounterILPSolves, 1)
		rec.Add(obs.CounterILPBBNodes, int64(nodes))
		rec.Add(obs.CounterILPBBPruned, int64(pruned))
		rec.Add(obs.CounterILPSimplexIters, int64(simplexIters))
		rec.Add(obs.CounterILPLazyActive, int64(lazyActivated))
		rec.Add(obs.CounterILPLPCold, int64(lpSolves))
		rec.Add(obs.CounterILPScratchGets, 1)
		if scrFresh {
			rec.Add(obs.CounterILPScratchFresh, 1)
		}
	}()
	// Lazy-row management: the LP starts with only the base constraints;
	// violated lazy rows are activated globally as relaxation solutions
	// expose them. Bounds from the smaller LPs remain valid relaxation
	// bounds; incumbents are only accepted once no lazy row is violated.
	lazyActive := make([]bool, len(m.lazy))
	activeCons := append([]constraint(nil), m.cons...)
	activate := func(idxs []int) {
		for _, li := range idxs {
			if !lazyActive[li] {
				lazyActive[li] = true
				lazyActivated++
				activeCons = append(activeCons, m.lazy[li])
			}
		}
	}

	for len(stack) > 0 {
		if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			canceled = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			timedOut = true
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		res := m.solveLP(ctx, activeCons, nd.lo, nd.hi, deadline, scr)
		lpSolves++
		simplexIters += res.iters
		// Activate violated lazy rows and re-solve until the relaxation
		// respects every discovered constraint (bounded rounds per node).
		for round := 0; res.status == lpOptimal && round < 20; round++ {
			viol := m.violatedLazy(res.x, lazyActive)
			if len(viol) == 0 {
				break
			}
			activate(viol)
			res = m.solveLP(ctx, activeCons, nd.lo, nd.hi, deadline, scr)
			lpSolves++
			simplexIters += res.iters
		}
		switch res.status {
		case lpInfeasible:
			continue
		case lpIterLimit:
			if err := ctx.Err(); err != nil && !errors.Is(err, context.DeadlineExceeded) {
				canceled = true
				continue
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				timedOut = true
				continue
			}
			// No usable bound; branch blindly on the first unfixed binary.
			j := firstUnfixedInt(m, nd.lo, nd.hi)
			if j == -1 {
				continue
			}
			stack = pushChildren(stack, nd.lo, nd.hi, j)
			continue
		}
		if res.obj >= bestObj-1e-9 {
			pruned++
			continue // bound prune
		}
		if gi := fractionalSOS(m, res.x); gi >= 0 {
			stack = pushSOSChildren(stack, m.sos[gi], nd.lo, nd.hi, res.x)
			continue
		}
		frac := mostFractionalInt(m, res.x)
		if frac == -1 {
			// Integral on all binaries: round negligible drift and accept,
			// unless a still-inactive lazy row rejects it — then activate
			// and revisit the node (possible only when the per-node
			// activation round cap was hit).
			x := append(make([]float64, 0, len(res.x)), res.x...) // non-nil when n = 0
			for i := range x {
				if m.integer[i] {
					x[i] = math.Round(x[i])
				}
			}
			if viol := m.violatedLazy(x, lazyActive); len(viol) > 0 {
				activate(viol)
				stack = append(stack, nd)
				continue
			}
			if obj := m.Eval(x); obj < bestObj {
				bestObj = obj
				bestX = x
			}
			continue
		}
		stack = pushChildren(stack, nd.lo, nd.hi, frac)
	}

	r := Result{Nodes: nodes, Runtime: time.Since(start)}
	switch {
	case canceled:
		r.Status, r.X, r.Obj = Canceled, bestX, bestObj
	case bestX == nil && timedOut:
		r.Status = TimedOut
	case bestX == nil:
		r.Status = Infeasible
	case timedOut:
		r.Status, r.X, r.Obj = Feasible, bestX, bestObj
	default:
		r.Status, r.X, r.Obj = Optimal, bestX, bestObj
	}
	return r
}

// bbNode is one branch-and-bound node: its per-variable bounds.
type bbNode struct {
	lo, hi []float64
}

// pushChildren pushes the two child nodes fixing variable j to 0 and 1.
// The 1-branch is pushed last so depth-first search tries it first —
// selection problems usually want variables on.
func pushChildren(stack []bbNode, lo, hi []float64, j int) []bbNode {
	lo0 := append([]float64(nil), lo...)
	hi0 := append([]float64(nil), hi...)
	hi0[j] = 0
	lo1 := append([]float64(nil), lo...)
	hi1 := append([]float64(nil), hi...)
	lo1[j] = 1
	stack = append(stack, bbNode{lo: lo0, hi: hi0})
	stack = append(stack, bbNode{lo: lo1, hi: hi1})
	return stack
}

// fractionalSOS returns the index of an SOS group containing a fractional
// variable (the one with the largest fractional mass), or -1.
func fractionalSOS(m *Model, x []float64) int {
	best, bestMass := -1, intTol
	for gi, vars := range m.sos {
		mass := 0.0
		frac := false
		for _, v := range vars {
			mass += x[v]
			if f := math.Abs(x[v] - math.Round(x[v])); f > intTol {
				frac = true
			}
		}
		if frac && mass > bestMass {
			best, bestMass = gi, mass
		}
	}
	return best
}

// pushSOSChildren branches a selection group: one child per candidate
// fixing that candidate on (and its siblings off), plus one child with the
// whole group off. Children with the largest LP value are pushed last so
// depth-first search explores them first. Candidates already fixed off are
// skipped.
func pushSOSChildren(stack []bbNode, vars []int, lo, hi, x []float64) []bbNode {
	ordered := append([]int(nil), vars...)
	sort.Slice(ordered, func(a, b int) bool { return x[ordered[a]] < x[ordered[b]] })

	// None-selected child first (explored last).
	loN := append([]float64(nil), lo...)
	hiN := append([]float64(nil), hi...)
	feasible := true
	for _, v := range vars {
		if loN[v] > 0.5 {
			feasible = false
			break
		}
		hiN[v] = 0
	}
	if feasible {
		stack = append(stack, bbNode{lo: loN, hi: hiN})
	}
	for _, v := range ordered {
		if hi[v] < 0.5 {
			continue // already excluded
		}
		loC := append([]float64(nil), lo...)
		hiC := append([]float64(nil), hi...)
		loC[v] = 1
		ok := true
		for _, w := range vars {
			if w == v {
				continue
			}
			if loC[w] > 0.5 {
				ok = false
				break
			}
			hiC[w] = 0
		}
		if ok {
			stack = append(stack, bbNode{lo: loC, hi: hiC})
		}
	}
	return stack
}

// mostFractionalInt returns the integer variable whose LP value is closest
// to 0.5, or -1 when all integer variables are integral.
func mostFractionalInt(m *Model, x []float64) int {
	best, bestDist := -1, 0.5-intTol
	for i, v := range x {
		if !m.integer[i] {
			continue
		}
		f := math.Abs(v - math.Round(v))
		if f < intTol {
			continue
		}
		if d := math.Abs(v - 0.5); d < bestDist {
			best, bestDist = i, d
		}
	}
	return best
}

// firstUnfixedInt returns the first binary variable with lo < hi, or -1.
func firstUnfixedInt(m *Model, lo, hi []float64) int {
	for i := range lo {
		if m.integer[i] && hi[i]-lo[i] > intTol {
			return i
		}
	}
	return -1
}
