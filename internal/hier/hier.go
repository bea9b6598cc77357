// Package hier implements the scalability extension the paper sketches in
// §V-A and §VI: a hierarchical, divide-and-conquer exact flow. The design
// is cut into spatial tiles; each tile is formulation (3) restricted to
// its objects (exact.SolveObjects), solved against the residual capacities
// left by earlier tiles, and objects that span tiles (or that a tile ILP
// left unrouted) are swept up by a final greedy pass. Tile models stay
// tiny, so the exact solver scales to benchmarks whose monolithic
// formulation (3) is far beyond any time limit.
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
	"repro/internal/obs"
	"repro/internal/route"
)

// Options tunes the hierarchical solve.
type Options struct {
	// Tiles splits the grid into Tiles x Tiles regions. Default 2.
	Tiles int
	// TimePerTile bounds each tile's ILP. Default 5s.
	TimePerTile time.Duration
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
// committed so far. Each tile runs under a context deadline TimePerTile
// away, or the caller's deadline when that comes first.
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
		// A tile whose model exceeds exact's size guard, or whose ILP ends
		// without a solution, commits nothing and leaves its objects to the
		// sweep; a cancellation surfaces at the next tile or in the sweep.
		tctx, cancel := context.WithTimeout(ctx, opt.TimePerTile)
		tile, err := exact.SolveObjects(tctx, p, objs, u.Avail, a.Choice, exact.Options{})
		cancel()
		if err == nil {
			commitTile(p, objs, tile.Assignment, u, &a)
		}
		res.TilesSolved++
		if tile.TimedOut {
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

// commitTile applies a tile's selections: each commits iff its object is
// still unrouted and the candidate fits the remaining capacity (a defense
// against numeric drift in the LP).
func commitTile(p *route.Problem, objs []int, tile route.Assignment, u *grid.Usage, a *route.Assignment) {
	for _, i := range objs {
		if j := tile.Choice[i]; j >= 0 && a.Choice[i] < 0 && p.CandidateFits(i, j, u) {
			place(p, i, j, u, a)
		}
	}
}

// place selects candidate j for object i and reserves its tracks.
func place(p *route.Problem, i, j int, u *grid.Usage, a *route.Assignment) {
	a.Choice[i] = j
	for _, e := range p.Cands[i][j].Edges {
		u.Add(int(e.Layer), int(e.Idx), int(e.N))
	}
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
		place(p, i, bestJ, u, a)
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
