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
	// Vars and Cons are the linearized model dimensions.
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
// mechanism.
func SolveCtx(ctx context.Context, p *route.Problem, opt Options) (Result, error) {
	var res Result
	err := obs.Do(ctx, obs.StageILP, 0, func(ctx context.Context) error {
		var err error
		res, err = solveCtx(ctx, p, opt)
		return err
	})
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterExactVars, int64(res.Vars))
		rec.Add(obs.CounterExactCons, int64(res.Cons))
	}
	return res, err
}

// solveCtx is the span-free body of SolveCtx.
func solveCtx(ctx context.Context, p *route.Problem, opt Options) (Result, error) {
	start := time.Now()
	if err := faultinject.Fire(ctx, faultinject.ExactSolve); err != nil {
		return Result{}, fmt.Errorf("exact: %w", err)
	}
	maxVars := opt.MaxVars
	if maxVars == 0 {
		maxVars = 40000
	}

	// Variable layout: one binary per (object, candidate), then one
	// continuous product variable per costed same-group candidate pair.
	xIdx := make([][]int, len(p.Cands))
	nx := 0
	for i := range p.Cands {
		xIdx[i] = make([]int, len(p.Cands[i]))
		for j := range p.Cands[i] {
			xIdx[i][j] = nx
			nx++
		}
	}

	var pairs []pairTerm
	for i := range p.Objects {
		if err := ctx.Err(); err != nil {
			if err == context.DeadlineExceeded {
				return timedOutResult(p, start), nil
			}
			return Result{}, fmt.Errorf("exact: %w", err)
		}
		for _, q := range p.Partners(i) {
			if q <= i {
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
	// M for every unrouted object, shifted by a constant), plus the pair
	// costs on product variables.
	for i := range p.Cands {
		for j := range p.Cands[i] {
			v := xIdx[i][j]
			m.SetInteger(v)
			m.SetObj(v, p.Cost(i, j)-p.Opt.M)
		}
	}
	for k, pr := range pairs {
		m.SetObj(nx+k, pr.cost)
	}

	// Constraint (3b): at most one candidate per object (s_i is the slack).
	// The same sets drive SOS branching in the solver.
	for i := range p.Cands {
		if len(p.Cands[i]) == 0 {
			continue
		}
		terms := make([]ilp.Term, 0, len(p.Cands[i]))
		for j := range p.Cands[i] {
			terms = append(terms, ilp.Term{Var: xIdx[i][j], Coef: 1})
		}
		m.AddConstraint(terms, 1)
		m.AddSOS(xIdx[i])
	}

	// Constraint (3c): per-edge capacities, but only for edges that could
	// actually overflow — other rows can never bind.
	all := make([]int, len(p.Objects))
	for i := range all {
		all[i] = i
	}
	capOf := func(l, idx int) int {
		x, y := p.Grid.EdgeCell(l, idx)
		return p.Grid.Cap(l, x, y)
	}
	for _, row := range p.CapacityRows(all, capOf) {
		terms := make([]ilp.Term, len(row.Uses))
		for k, u := range row.Uses {
			terms[k] = ilp.Term{Var: xIdx[u.Obj][u.Cand], Coef: float64(u.N)}
		}
		m.AddLazyConstraint(terms, float64(row.Limit))
	}

	// Product linearization: y >= x_ij + x_qr - 1, activated lazily (a
	// product row only binds when both its candidates are selected).
	for k, pr := range pairs {
		m.AddLazyConstraint([]ilp.Term{
			{Var: xIdx[pr.i][pr.j], Coef: 1},
			{Var: xIdx[pr.q][pr.r], Coef: 1},
			{Var: nx + k, Coef: -1},
		}, 1)
	}

	solveOpt := ilp.SolveOptions{Ctx: ctx, TimeLimit: opt.TimeLimit}
	if opt.WarmStart != nil {
		inc := make([]float64, nVars)
		for i, c := range opt.WarmStart.Choice {
			if c >= 0 {
				inc[xIdx[i][c]] = 1
			}
		}
		for k, pr := range pairs {
			ci, cq := opt.WarmStart.Choice[pr.i], opt.WarmStart.Choice[pr.q]
			if ci == pr.j && cq == pr.r {
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
		Cons:    m.NumConstraints(),
	}
	switch res.Status {
	case ilp.Optimal, ilp.Feasible:
		out.TimedOut = res.Status == ilp.Feasible
		out.Assignment = p.NewAssignment()
		for i := range p.Cands {
			for j := range p.Cands[i] {
				if res.X[xIdx[i][j]] > 0.5 {
					out.Assignment.Choice[i] = j
				}
			}
		}
		out.Objective = p.ObjectiveValue(out.Assignment)
		return out, nil
	case ilp.TimedOut:
		out.TimedOut = true
		out.Assignment = p.NewAssignment()
		out.Objective = p.ObjectiveValue(out.Assignment)
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

// timedOutResult is the all-unrouted result reported when the deadline
// expired before the search could even start.
func timedOutResult(p *route.Problem, start time.Time) Result {
	out := Result{
		Status:     ilp.TimedOut,
		TimedOut:   true,
		Assignment: p.NewAssignment(),
		Runtime:    time.Since(start),
	}
	out.Objective = p.ObjectiveValue(out.Assignment)
	return out
}
