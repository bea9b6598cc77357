// Package exact solves Streak's formulation (3) exactly: it linearizes the
// quadratic regularity term with product variables (the standard
// y >= x1 + x2 - 1 relaxation, exact here because the products carry
// nonnegative costs under minimization) and hands the 0/1 program to the
// internal ILP solver. It plays the role GUROBI plays in the paper,
// including the time-limit behaviour on congested benchmarks.
package exact

import (
	"context"
	"fmt"
	"time"

	"repro/internal/faultinject"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/route"
)

// Options tunes the exact solve.
type Options struct {
	// TimeLimit bounds the ILP solve (the paper uses 3600 s). Zero means
	// no limit.
	TimeLimit time.Duration
	// WarmStart, when non-nil, primes branch and bound with a known
	// feasible assignment (typically the primal-dual solution).
	WarmStart *route.Assignment
	// MaxVars aborts model construction when the linearized model would
	// exceed this many variables — a guard against building LPs the dense
	// simplex cannot hold in memory. Zero means 40000.
	MaxVars int
}

// Result is the outcome of an exact solve.
type Result struct {
	// Assignment is the best selection found.
	Assignment route.Assignment
	// Objective is the formulation (3a) value of Assignment.
	Objective float64
	// Status is the underlying ILP status.
	Status ilp.Status
	// TimedOut is true when the time limit interrupted the proof of
	// optimality (report as "> limit" like the paper's congested rows).
	TimedOut bool
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
	// Vars and Cons are the linearized model dimensions: Cons counts the
	// (3b) rows and every lazy product and capacity row.
	Vars, Cons int
}

// pairTerm records one product variable linking two candidates.
type pairTerm struct {
	i, j, q, r int
	cost       float64
}

// Solve builds the linearized ILP for the problem and solves it.
func Solve(p *route.Problem, opt Options) (Result, error) {
	return SolveCtx(context.Background(), p, opt)
}

// SolveCtx is Solve honoring the context: cancellation aborts both model
// construction and the branch-and-bound search and returns ctx.Err(); a
// context deadline acts exactly like Options.TimeLimit (whichever expires
// first wins), so callers can drive the exact leg with one deadline
// mechanism. It is SolveObjects over every object at full capacity, inside
// the exact.solve fault point, the solve.ilp span and the model-size
// counters.
func SolveCtx(ctx context.Context, p *route.Problem, opt Options) (Result, error) {
	var res Result
	err := obs.Do(ctx, obs.StageILP, 0, func(ctx context.Context) error {
		if err := faultinject.Fire(ctx, faultinject.ExactSolve); err != nil {
			return fmt.Errorf("exact: %w", err)
		}
		all := make([]int, len(p.Objects))
		for i := range all {
			all[i] = i
		}
		capOf := func(l, idx int) int {
			x, y := p.Grid.EdgeCell(l, idx)
			return p.Grid.Cap(l, x, y)
		}
		var err error
		res, err = SolveObjects(ctx, p, all, capOf, nil, opt)
		return err
	})
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterExactVars, int64(res.Vars))
		rec.Add(obs.CounterExactCons, int64(res.Cons))
	}
	return res, err
}

// SolveObjects builds formulation (3) over the objects objs and solves it,
// holding every other object at its committed choice (committed[i], -1 for
// unrouted; nil commits nothing). Each object of objs selects at most one
// candidate (3b), every edge keeps the track need of objs within
// capOf(layer, idx) (3c), and the pair costs of objs are linearized: a pair
// inside objs gets a product variable, and a pair with a committed partner
// outside objs is linear in the candidate, so it folds into the
// candidate's cost (Eq. 4). The monolithic solve is SolveObjects over
// every object at full capacity; a hier tile is SolveObjects over the
// tile's objects at the residual capacity the earlier tiles left.
//
// The Assignment of the result is committed with the selections of objs
// in place, and Objective is its (3a) value. Context cancellation and
// deadlines act as in SolveCtx.
func SolveObjects(ctx context.Context, p *route.Problem, objs []int, capOf func(l, idx int) int, committed []int, opt Options) (Result, error) {
	start := time.Now()
	maxVars := opt.MaxVars
	if maxVars == 0 {
		maxVars = 40000
	}
	a := p.NewAssignment()
	copy(a.Choice, committed)
	for _, i := range objs {
		a.Choice[i] = -1
	}

	// Variable layout: one binary per (object, candidate) in objs order,
	// then one continuous product variable per costed candidate pair
	// inside objs. base[i] is object i's first binary, -1 outside objs.
	base := make([]int, len(p.Objects))
	for i := range base {
		base[i] = -1
	}
	nx := 0
	for _, i := range objs {
		base[i] = nx
		nx += len(p.Cands[i])
	}
	var pairs []pairTerm
	for _, i := range objs {
		if err := ctx.Err(); err != nil {
			if err == context.DeadlineExceeded {
				return Result{Status: ilp.TimedOut, TimedOut: true, Assignment: a,
					Objective: p.ObjectiveValue(a), Runtime: time.Since(start)}, nil
			}
			return Result{}, fmt.Errorf("exact: %w", err)
		}
		for _, q := range p.Partners(i) {
			if q <= i || base[q] < 0 {
				continue
			}
			for j := range p.Cands[i] {
				for r := range p.Cands[q] {
					if c := p.PairCost(i, j, q, r); c > 1e-9 {
						pairs = append(pairs, pairTerm{i, j, q, r, c})
					}
				}
			}
		}
	}
	nVars := nx + len(pairs)
	if nVars > maxVars {
		return Result{}, fmt.Errorf("exact: linearized model needs %d variables (> %d limit)", nVars, maxVars)
	}

	m := ilp.NewModel(nVars)
	// Objective: c(i,j) - M per selection variable (equivalent to charging
	// M for every unrouted object, shifted by a constant) plus the pair
	// costs against committed partners, and the pair costs on product
	// variables.
	for _, i := range objs {
		for j := range p.Cands[i] {
			cost := p.Cost(i, j) - p.Opt.M
			for _, q := range p.Partners(i) {
				if a.Choice[q] >= 0 {
					cost += p.PairCost(i, j, q, a.Choice[q])
				}
			}
			m.SetInteger(base[i] + j)
			m.SetObj(base[i]+j, cost)
		}
	}
	for k, pr := range pairs {
		m.SetObj(nx+k, pr.cost)
	}

	// Constraint (3b): at most one candidate per object (s_i is the slack).
	// The same sets drive SOS branching in the solver.
	for _, i := range objs {
		if len(p.Cands[i]) == 0 {
			continue
		}
		terms := make([]ilp.Term, len(p.Cands[i]))
		sos := make([]int, len(p.Cands[i]))
		for j := range p.Cands[i] {
			terms[j] = ilp.Term{Var: base[i] + j, Coef: 1}
			sos[j] = base[i] + j
		}
		m.AddConstraint(terms, 1)
		m.AddSOS(sos)
	}

	// Product linearization: y >= x_ij + x_qr - 1, activated lazily (a
	// product row only binds when both its candidates are selected).
	for k, pr := range pairs {
		m.AddLazyConstraint([]ilp.Term{
			{Var: base[pr.i] + pr.j, Coef: 1},
			{Var: base[pr.q] + pr.r, Coef: 1},
			{Var: nx + k, Coef: -1},
		}, 1)
	}

	// Constraint (3c), also lazy: per-edge capacities, but only for edges
	// that could actually overflow — other rows can never bind.
	for _, row := range p.CapacityRows(objs, capOf) {
		terms := make([]ilp.Term, len(row.Uses))
		for k, u := range row.Uses {
			terms[k] = ilp.Term{Var: base[u.Obj] + u.Cand, Coef: float64(u.N)}
		}
		m.AddLazyConstraint(terms, float64(row.Limit))
	}

	solveOpt := ilp.SolveOptions{Ctx: ctx, TimeLimit: opt.TimeLimit}
	if opt.WarmStart != nil {
		warm := opt.WarmStart.Choice
		inc := make([]float64, nVars)
		for _, i := range objs {
			if warm[i] >= 0 {
				inc[base[i]+warm[i]] = 1
			}
		}
		for k, pr := range pairs {
			if warm[pr.i] == pr.j && warm[pr.q] == pr.r {
				inc[nx+k] = 1
			}
		}
		solveOpt.Incumbent = inc
	}

	res := ilp.Solve(m, solveOpt)
	out := Result{
		Status:  res.Status,
		Runtime: time.Since(start),
		Vars:    nVars,
		Cons:    m.NumConstraints() + m.NumLazyConstraints(),
	}
	switch res.Status {
	case ilp.Optimal, ilp.Feasible, ilp.TimedOut:
		if res.X != nil {
			for _, i := range objs {
				for j := range p.Cands[i] {
					if res.X[base[i]+j] > 0.5 {
						a.Choice[i] = j
					}
				}
			}
		}
		out.TimedOut = res.Status != ilp.Optimal
		out.Assignment = a
		out.Objective = p.ObjectiveValue(a)
		return out, nil
	case ilp.Canceled:
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("exact: %w", err)
		}
		return out, fmt.Errorf("exact: solve canceled")
	default:
		return out, fmt.Errorf("exact: ILP reported %v", res.Status)
	}
}
