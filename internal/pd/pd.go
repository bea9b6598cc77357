// Package pd implements Streak's primal-dual selection algorithm
// (Algorithm 2, §III-D). Starting from the all-zero (primal infeasible,
// dual feasible) solution it repeatedly commits the cheapest remaining
// candidate — cost c(i,j) plus the linearized pair cost c'(i,j) of Eq. (4)
// — updates the residual edge capacities, prunes candidates the update made
// infeasible, and marks objects whose candidate set emptied as unrouted.
// Edge capacity constraints hold at every step by construction.
package pd

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/route"
)

// Result carries the primal-dual outcome.
type Result struct {
	// Assignment is the selected candidate per object (-1 for unrouted).
	Assignment route.Assignment
	// Objective is the formulation (3a) value of the assignment.
	Objective float64
	// Runtime is the wall-clock solve time.
	Runtime time.Duration
	// Iterations counts committed objects (routed or abandoned).
	Iterations int
}

// Solve runs Algorithm 2 on the problem.
func Solve(p *route.Problem) Result {
	r, _ := SolveCtx(context.Background(), p) // background ctx never cancels
	return r
}

// SolveCtx is Solve honoring the context: cancellation (or an expired
// deadline) is checked before every commit iteration, so the call returns
// promptly with ctx's error and the partial assignment committed so far.
// Edge capacities hold at every step, so the partial result is legal:
// committed objects carry their candidate index, every uncommitted object
// stays at -1, and Result.Objective is formulation (3a) evaluated over
// exactly that partial assignment.
func SolveCtx(ctx context.Context, p *route.Problem) (Result, error) {
	var res Result
	err := obs.Do(ctx, obs.StagePD, p.Opt.WorkerCount(), func(ctx context.Context) error {
		var err error
		res, err = solveCtx(ctx, p)
		return err
	})
	return res, err
}

// solveCtx is the span-free body of SolveCtx (Algorithm 2).
func solveCtx(ctx context.Context, p *route.Problem) (Result, error) {
	start := time.Now()
	if err := faultinject.Fire(ctx, faultinject.PDSolve); err != nil {
		return Result{}, fmt.Errorf("pd: %w", err)
	}
	n := len(p.Objects)
	a := p.NewAssignment()
	pool := p.UsagePool()
	// Counter snapshot precedes the first Get so the solve's own
	// acquisitions are part of the reported delta.
	poolGets0, poolFresh0 := pool.Counters()
	u := pool.Get()
	defer pool.Put(u)

	// alive[i][j] reports whether candidate j of object i is still primal
	// feasible under the residual capacities (line 9 prunes these).
	alive := make([][]bool, n)
	done := make([]bool, n)
	for i := range alive {
		alive[i] = make([]bool, len(p.Cands[i]))
		for j := range alive[i] {
			alive[i][j] = p.CandidateFits(i, j, u)
		}
	}

	// The edge-user index lets us re-check only candidates that touch edges
	// whose capacity changed, instead of the whole candidate universe. It is
	// a CSR over global edge ids (layer offset + dense index): one counting
	// pass, one prefix sum, one fill — no per-edge map buckets.
	idx := newEdgeIndex(p)
	workers := p.Opt.WorkerCount()
	var pruneRefs []candRef // reused across commits
	// mark dedups the recheck set per commit: mark[cand global id] == epoch
	// means the candidate is already queued this round.
	mark := make([]int32, idx.numCands)
	epoch := int32(0)

	iterations := 0
	rec := obs.FromContext(ctx)
	var pruneChecked, pruneSurvivors int64
	defer func() {
		if rec == nil {
			return
		}
		rec.Add(obs.CounterPDIterations, int64(iterations))
		rec.Add(obs.CounterPDRouted, int64(a.RoutedObjects()))
		rec.Add(obs.CounterPDPruneChecked, pruneChecked)
		rec.Add(obs.CounterPDPruneSurvivors, pruneSurvivors)
		gets, fresh := pool.Counters()
		rec.Add(obs.CounterPDUsagePoolGets, gets-poolGets0)
		rec.Add(obs.CounterPDUsagePoolFresh, fresh-poolFresh0)
	}()
	for {
		if err := ctx.Err(); err != nil {
			return Result{
				Assignment: a,
				Objective:  p.ObjectiveValue(a),
				Runtime:    time.Since(start),
				Iterations: iterations,
			}, fmt.Errorf("pd: %w", err)
		}
		if err := faultinject.Fire(ctx, faultinject.PDCommit); err != nil {
			return Result{
				Assignment: a,
				Objective:  p.ObjectiveValue(a),
				Runtime:    time.Since(start),
				Iterations: iterations,
			}, fmt.Errorf("pd: %w", err)
		}
		// Line 6: among infeasible (uncommitted) objects pick the candidate
		// minimizing c(i,j) + c'(i,j).
		bestI, bestJ := -1, -1
		bestCost := math.Inf(1)
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			for j := range p.Cands[i] {
				if !alive[i][j] {
					continue
				}
				cost := p.Cost(i, j) + cPrime(p, a, alive, i, j)
				if cost < bestCost {
					bestCost, bestI, bestJ = cost, i, j
				}
			}
		}
		if bestI == -1 {
			// No live candidate anywhere: mark all remaining unrouted
			// (lines 10-12 applied collectively).
			for i := 0; i < n; i++ {
				if !done[i] {
					done[i] = true
					a.Choice[i] = -1
					iterations++
				}
			}
			break
		}

		// Lines 7-8: commit and update residual capacities.
		a.Choice[bestI] = bestJ
		done[bestI] = true
		iterations++
		// Fault seam: a corrupted commit skips the capacity bookkeeping, so
		// later commits can over-subscribe the edges this candidate uses —
		// the independent legality audit must catch the resulting overflow.
		corrupted := faultinject.Corrupt(ctx, faultinject.PDCapacity)
		if !corrupted {
			for _, e := range p.Cands[bestI][bestJ].Edges {
				u.Add(int(e.Layer), int(e.Idx), int(e.N))
			}
		}

		// Line 9: prune candidates the capacity update made infeasible;
		// lines 10-12: objects whose sets emptied become unrouted. The
		// recheck set is the union of the CSR rows of the touched edges,
		// epoch-deduped (a candidate sharing several edges is checked once).
		epoch++
		pruneRefs = pruneRefs[:0]
		for _, e := range p.Cands[bestI][bestJ].Edges {
			gid := idx.layerOff[e.Layer] + e.Idx
			for _, cid := range idx.users[idx.rowStart[gid]:idx.rowStart[gid+1]] {
				ref := idx.refs[cid]
				if done[ref.i] || !alive[ref.i][ref.j] || mark[cid] == epoch {
					continue
				}
				mark[cid] = epoch
				pruneRefs = append(pruneRefs, ref)
			}
		}
		pruneParallel(p, u, alive, pruneRefs, workers)
		if rec != nil {
			pruneChecked += int64(len(pruneRefs))
			for _, ref := range pruneRefs {
				if alive[ref.i][ref.j] {
					pruneSurvivors++
				}
			}
		}
		for i := 0; i < n; i++ {
			if done[i] {
				continue
			}
			any := false
			for j := range p.Cands[i] {
				if alive[i][j] {
					any = true
					break
				}
			}
			if !any {
				done[i] = true
				a.Choice[i] = -1 // s_i = 1
				iterations++
			}
		}

		allDone := true
		for i := 0; i < n; i++ {
			if !done[i] {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
	}

	return Result{
		Assignment: a,
		Objective:  p.ObjectiveValue(a),
		Runtime:    time.Since(start),
		Iterations: iterations,
	}, nil
}

// candRef addresses candidate j of object i.
type candRef struct{ i, j int }

// edgeIndex is the edge-to-candidate-users index behind the prune step, in
// CSR form over global edge ids (per-layer offset plus dense edge index)
// with candidates numbered globally: one counting pass, one prefix sum, one
// fill — no per-edge map buckets, and row lookups are two array reads.
type edgeIndex struct {
	layerOff []int32   // layer l's edges start at global id layerOff[l]
	rowStart []int32   // CSR row boundaries, len = total edges + 1
	users    []int32   // concatenated rows of candidate global ids
	refs     []candRef // candidate global id -> (object, candidate)
	numCands int
}

func newEdgeIndex(p *route.Problem) *edgeIndex {
	g := p.Grid
	layerOff := make([]int32, len(g.Layers)+1)
	for l := range g.Layers {
		layerOff[l+1] = layerOff[l] + int32(g.EdgeCount(l))
	}
	total := int(layerOff[len(g.Layers)])
	numCands := 0
	for i := range p.Cands {
		numCands += len(p.Cands[i])
	}
	idx := &edgeIndex{
		layerOff: layerOff,
		rowStart: make([]int32, total+1),
		refs:     make([]candRef, 0, numCands),
		numCands: numCands,
	}
	for i := range p.Cands {
		for j := range p.Cands[i] {
			idx.refs = append(idx.refs, candRef{i, j})
			for _, e := range p.Cands[i][j].Edges {
				idx.rowStart[layerOff[e.Layer]+e.Idx+1]++
			}
		}
	}
	for k := 1; k <= total; k++ {
		idx.rowStart[k] += idx.rowStart[k-1]
	}
	idx.users = make([]int32, idx.rowStart[total])
	cursor := append([]int32(nil), idx.rowStart[:total]...)
	cid := int32(0)
	for i := range p.Cands {
		for j := range p.Cands[i] {
			for _, e := range p.Cands[i][j].Edges {
				gid := layerOff[e.Layer] + e.Idx
				idx.users[cursor[gid]] = cid
				cursor[gid]++
			}
			cid++
		}
	}
	return idx
}

// pruneParallel re-checks the feasibility of the given candidates against
// the residual capacities and kills the ones that no longer fit,
// fanning the checks out across workers when the batch is worth it. Each
// ref owns its alive cell and the usage tracker is only read, so the
// outcome is independent of scheduling (line 9 of Algorithm 2 is a pure
// filter).
func pruneParallel(p *route.Problem, u *grid.Usage, alive [][]bool, refs []candRef, workers int) {
	// Below this batch size goroutine startup costs more than the checks.
	const minParallel = 64
	if workers <= 1 || len(refs) < minParallel {
		for _, ref := range refs {
			if !p.CandidateFits(ref.i, ref.j, u) {
				alive[ref.i][ref.j] = false
			}
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (len(refs) + workers - 1) / workers
	for lo := 0; lo < len(refs); lo += chunk {
		hi := lo + chunk
		if hi > len(refs) {
			hi = len(refs)
		}
		wg.Add(1)
		go func(part []candRef) {
			defer wg.Done()
			for _, ref := range part {
				if !p.CandidateFits(ref.i, ref.j, u) {
					alive[ref.i][ref.j] = false
				}
			}
		}(refs[lo:hi])
	}
	wg.Wait()
}

// cPrime evaluates Eq. (4)/(5): for each same-group partner of object i,
// add the pair cost against the partner's committed candidate, or the
// minimum pair cost over the partner's still-feasible candidates when the
// partner is undecided. Partners with no live candidates contribute
// nothing (they will be unrouted).
func cPrime(p *route.Problem, a route.Assignment, alive [][]bool, i, j int) float64 {
	total := 0.0
	for _, q := range p.Partners(i) {
		if a.Choice[q] >= 0 {
			total += p.PairCost(i, j, q, a.Choice[q])
			continue
		}
		best := math.Inf(1)
		for r := range p.Cands[q] {
			if !alive[q][r] {
				continue
			}
			if c := p.PairCost(i, j, q, r); c < best {
				best = c
			}
		}
		if !math.IsInf(best, 1) {
			total += best
		}
	}
	return total
}
