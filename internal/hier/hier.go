// Package hier implements the scalability extension the paper sketches in
// §V-A and §VI: a hierarchical, divide-and-conquer exact flow. The design
// is cut into spatial tiles; each tile's objects form a small ILP solved
// against the residual capacities left by earlier tiles, and objects that
// span tiles (or that a tile ILP left unrouted) are swept up by a final
// greedy pass. Tile models stay tiny, so the exact solver scales to
// benchmarks whose monolithic formulation (3) is far beyond any time
// limit.
package hier

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/exact"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/route"
)

// Options tunes the hierarchical solve.
type Options struct {
	// Tiles splits the grid into Tiles x Tiles regions. Default 2.
	Tiles int
	// TimePerTile bounds each tile's ILP. Default 5s.
	TimePerTile time.Duration
	// MaxVarsPerTile guards each tile model's size; oversized tiles fall
	// back to the greedy pass. Default 20000.
	MaxVarsPerTile int
	// Workers is ignored: tiles always solve in order, each against the
	// residual capacity left by earlier tiles.
	//
	// Deprecated: ignored.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.Tiles == 0 {
		o.Tiles = 2
	}
	if o.TimePerTile == 0 {
		o.TimePerTile = 5 * time.Second
	}
	if o.MaxVarsPerTile == 0 {
		o.MaxVarsPerTile = 20000
	}
	return o
}

// Result is the outcome of a hierarchical solve.
type Result struct {
	// Assignment is the combined selection.
	Assignment route.Assignment
	// Objective is the formulation (3a) value.
	Objective float64
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
	// TilesSolved counts tile ILPs that ran; TilesTimedOut counts those
	// that hit their per-tile limit.
	TilesSolved, TilesTimedOut int
	// GreedyRouted counts objects the final sweep routed.
	GreedyRouted int
}

// Solve runs the divide-and-conquer flow on a built problem.
func Solve(p *route.Problem, opt Options) Result {
	r, _ := SolveCtx(context.Background(), p, opt) // background ctx never cancels
	return r
}

// SolveCtx is Solve honoring the context: cancellation is checked between
// tiles, inside every tile ILP, and per object of the greedy sweep, so the
// call returns promptly with ctx's error and the partial assignment
// committed so far. Each tile's ILP deadline is the smaller of TimePerTile
// and the context deadline.
func SolveCtx(ctx context.Context, p *route.Problem, opt Options) (Result, error) {
	var res Result
	err := obs.Do(ctx, obs.StageHier, 0, func(ctx context.Context) error {
		var err error
		res, err = solveCtx(ctx, p, opt)
		return err
	})
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterHierTilesSolved, int64(res.TilesSolved))
		rec.Add(obs.CounterHierTilesTimedOut, int64(res.TilesTimedOut))
		rec.Add(obs.CounterHierGreedyRouted, int64(res.GreedyRouted))
	}
	return res, err
}

// solveCtx is the span-free body of SolveCtx.
func solveCtx(ctx context.Context, p *route.Problem, opt Options) (Result, error) {
	start := time.Now()
	opt = opt.withDefaults()

	tiles := partition(p, opt.Tiles)
	a := p.NewAssignment()
	pool := p.UsagePool()
	// Counter snapshot precedes the first Get so the solve's own
	// acquisitions are part of the reported delta.
	if rec := obs.FromContext(ctx); rec != nil {
		g0, f0 := pool.Counters()
		defer func() {
			g1, f1 := pool.Counters()
			rec.Add(obs.CounterHierUsagePoolGets, g1-g0)
			rec.Add(obs.CounterHierUsagePoolFresh, f1-f0)
		}()
	}
	u := pool.Get()
	defer pool.Put(u)
	var res Result

	finish := func(err error) (Result, error) {
		res.Assignment = a
		res.Objective = p.ObjectiveValue(a)
		res.Runtime = time.Since(start)
		return res, err
	}

	for _, objs := range tiles {
		if len(objs) == 0 {
			continue
		}
		if err := ctx.Err(); err != nil {
			return finish(fmt.Errorf("hier: %w", err))
		}
		if err := faultinject.Fire(ctx, faultinject.HierTile); err != nil {
			return finish(fmt.Errorf("hier: %w", err))
		}
		plan, timedOut := planTile(ctx, p, objs, u, a.Choice, opt)
		commitPlan(p, plan, u, &a)
		res.TilesSolved++
		if timedOut {
			res.TilesTimedOut++
		}
	}

	// Final sweep: greedily route whatever remains (spanning objects,
	// oversize tiles, tile-ILP leftovers) against residual capacity.
	routed, err := greedySweep(ctx, p, u, &a)
	res.GreedyRouted = routed
	if err != nil {
		return finish(fmt.Errorf("hier: %w", err))
	}
	return finish(nil)
}

// partition buckets object indices by the tile containing their pin
// bounding-box center; the order is deterministic (row-major tiles, then
// a final bucket for nothing — spanning objects stay with their center
// tile, which is correct because capacities are rechecked there).
func partition(p *route.Problem, tiles int) [][]int {
	out := make([][]int, tiles*tiles)
	tw := (p.Grid.W + tiles - 1) / tiles
	th := (p.Grid.H + tiles - 1) / tiles
	for i := range p.Objects {
		g := p.Group(i)
		var pts []geom.Point
		for _, bi := range p.Objects[i].BitIdx {
			pts = append(pts, g.Bits[bi].PinLocs()...)
		}
		c := geom.BBox(pts).Center()
		tx := min(c.X/tw, tiles-1)
		ty := min(c.Y/th, tiles-1)
		out[ty*tiles+tx] = append(out[ty*tiles+tx], i)
	}
	return out
}

// candSel names candidate j of object i, picked by a tile plan.
type candSel struct{ i, j int }

// commitPlan applies a tile plan: each selection commits iff its object is
// still unrouted and the candidate fits the remaining capacity.
func commitPlan(p *route.Problem, plan []candSel, u *grid.Usage, a *route.Assignment) {
	for _, s := range plan {
		if a.Choice[s.i] >= 0 || !p.CandidateFits(s.i, s.j, u) {
			continue
		}
		a.Choice[s.i] = s.j
		for _, e := range p.Cands[s.i][s.j].Edges {
			u.Add(int(e.Layer), int(e.Idx), int(e.N))
		}
	}
}

// planTile builds and solves the tile-restricted ILP against the residual
// capacities in u and the committed choices snapshot, returning the
// selections to commit and whether the tile hit its time limit. It never
// mutates u or choice; commitPlan applies the plan. A canceled context
// aborts the tile ILP with an empty plan; the caller notices the
// cancellation itself.
func planTile(ctx context.Context, p *route.Problem, objs []int, u *grid.Usage, choice []int, opt Options) (plan []candSel, timedOut bool) {
	// Variable layout: per (tile object, candidate).
	type ref struct{ i, j int }
	var vars []ref
	varOf := make(map[ref]int)
	inTile := make(map[int]bool, len(objs))
	for _, i := range objs {
		inTile[i] = true
		for j := range p.Cands[i] {
			varOf[ref{i, j}] = len(vars)
			vars = append(vars, ref{i, j})
		}
	}
	if len(vars) == 0 || len(vars) > opt.MaxVarsPerTile {
		return nil, false
	}

	// Within-tile pair terms keep the regularity objective alive inside
	// each subproblem; they are linearized exactly like exact.Solve does.
	type pair struct {
		v1, v2 int
		cost   float64
	}
	var pairs []pair
	for _, i := range objs {
		for _, q := range p.Partners(i) {
			if q <= i || !inTile[q] {
				continue
			}
			for j := range p.Cands[i] {
				for r := range p.Cands[q] {
					if c := p.PairCost(i, j, q, r); c > 1e-9 {
						pairs = append(pairs, pair{varOf[ref{i, j}], varOf[ref{q, r}], c})
					}
				}
			}
		}
	}
	if len(vars)+len(pairs) > opt.MaxVarsPerTile {
		pairs = nil // keep the tile solvable; regularity falls to the sweep
	}

	m := ilp.NewModel(len(vars) + len(pairs))
	for vi, r := range vars {
		m.SetInteger(vi)
		cost := p.Cost(r.i, r.j) - p.Opt.M
		// Pair costs against already-committed partners fold into the
		// linear cost (the Eq. 4 trick).
		for _, q := range p.Partners(r.i) {
			if choice[q] >= 0 {
				cost += p.PairCost(r.i, r.j, q, choice[q])
			}
		}
		m.SetObj(vi, cost)
	}
	for k, pr := range pairs {
		y := len(vars) + k
		m.SetObj(y, pr.cost)
		m.AddLazyConstraint([]ilp.Term{
			{Var: pr.v1, Coef: 1}, {Var: pr.v2, Coef: 1}, {Var: y, Coef: -1},
		}, 1)
	}
	for _, i := range objs {
		var terms []ilp.Term
		for j := range p.Cands[i] {
			terms = append(terms, ilp.Term{Var: varOf[ref{i, j}], Coef: 1})
		}
		if len(terms) > 0 {
			m.AddConstraint(terms, 1)
			sos := make([]int, len(terms))
			for k, t := range terms {
				sos[k] = t.Var
			}
			m.AddSOS(sos)
		}
	}
	// Residual capacity rows (lazy), only over edges where the tile's largest
	// possible demand exceeds the residual capacity: no other row can ever
	// be violated.
	for _, row := range p.CapacityRows(objs, u.Avail) {
		terms := make([]ilp.Term, len(row.Uses))
		for k, cu := range row.Uses {
			terms[k] = ilp.Term{Var: varOf[ref{cu.Obj, cu.Cand}], Coef: float64(cu.N)}
		}
		m.AddLazyConstraint(terms, float64(row.Limit))
	}

	res := ilp.Solve(m, ilp.SolveOptions{Ctx: ctx, TimeLimit: opt.TimePerTile})
	if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
		return nil, res.Status == ilp.TimedOut
	}
	// The capacity double-check (defense against numeric drift in the LP)
	// happens at commit time in commitPlan.
	for vi, r := range vars {
		if res.X[vi] > 0.5 && choice[r.i] < 0 {
			plan = append(plan, candSel{r.i, r.j})
		}
	}
	return plan, res.Status == ilp.Feasible
}

// greedySweep routes remaining objects cheapest-first (candidate cost plus
// pair cost against committed partners), capacity-checked. Returns how
// many objects it routed, stopping early with ctx's error on cancellation.
func greedySweep(ctx context.Context, p *route.Problem, u *grid.Usage, a *route.Assignment) (int, error) {
	var rest []int
	for i := range p.Objects {
		if a.Choice[i] < 0 {
			rest = append(rest, i)
		}
	}
	sort.Slice(rest, func(x, y int) bool {
		cx, cy := bestCost(p, rest[x], a), bestCost(p, rest[y], a)
		if cx != cy {
			return cx < cy
		}
		return rest[x] < rest[y]
	})
	routed := 0
	for _, i := range rest {
		if err := ctx.Err(); err != nil {
			return routed, err
		}
		bestJ, bestC := -1, 0.0
		for j := range p.Cands[i] {
			if !p.CandidateFits(i, j, u) {
				continue
			}
			c := p.Cost(i, j)
			for _, q := range p.Partners(i) {
				if a.Choice[q] >= 0 {
					c += p.PairCost(i, j, q, a.Choice[q])
				}
			}
			if bestJ == -1 || c < bestC {
				bestJ, bestC = j, c
			}
		}
		if bestJ == -1 {
			continue
		}
		a.Choice[i] = bestJ
		for _, e := range p.Cands[i][bestJ].Edges {
			u.Add(int(e.Layer), int(e.Idx), int(e.N))
		}
		routed++
	}
	return routed, nil
}

// bestCost returns the cheapest candidate cost of an object (for the sweep
// ordering).
func bestCost(p *route.Problem, i int, a *route.Assignment) float64 {
	if len(p.Cands[i]) == 0 {
		return 1e18
	}
	return p.Cost(i, 0)
}

// SolveMonolithic is the comparison point: the whole-design exact solve
// (identical to exact.Solve), exposed here so benchmarks can compare the
// two flows side by side.
func SolveMonolithic(p *route.Problem, timeLimit time.Duration, warm *route.Assignment) (exact.Result, error) {
	return exact.Solve(p, exact.Options{TimeLimit: timeLimit, WarmStart: warm})
}
