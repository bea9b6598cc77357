// Package postopt implements Streak's post-optimization stage (§IV):
// congestion-based layer prediction (Eq. 7 and 8), bottom-up clustering of
// the bits of unrouted groups (Algorithm 3), and post-routing refinement of
// source-to-sink distance deviations via capacity-checked twisting detours
// (Algorithm 4, Figs. 9 and 10).
package postopt

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
)

// edge2D identifies a direction-specific 2-D routing edge.
type edge2D struct {
	horizontal bool
	x, y       int
}

// compare orders edges vertical first, then by x, then by y.
func (e edge2D) compare(o edge2D) int {
	if e.horizontal != o.horizontal {
		if e.horizontal {
			return 1
		}
		return -1
	}
	return cmp.Or(cmp.Compare(e.x, o.x), cmp.Compare(e.y, o.y))
}

// edgeDemand is one edge's expected track demand.
type edgeDemand struct {
	e      edge2D
	demand float64
}

// estimateUsage returns the expected track demand per 2-D edge of a group
// (Eq. 7): each candidate topology of each bit contributes its edge usage
// weighted by 1/|candidates|. The edges come sorted, so every sum over
// them runs in one fixed order.
func estimateUsage(bitCands [][]geom.Tree) []edgeDemand {
	est := make(map[edge2D]float64)
	for _, cands := range bitCands {
		if len(cands) == 0 {
			continue
		}
		w := 1.0 / float64(len(cands))
		for _, t := range cands {
			for _, s := range t.Canon().Segs {
				n := s.Norm()
				if n.Horizontal() {
					for x := n.A.X; x < n.B.X; x++ {
						est[edge2D{true, x, n.A.Y}] += w
					}
				} else {
					for y := n.A.Y; y < n.B.Y; y++ {
						est[edge2D{false, n.A.X, y}] += w
					}
				}
			}
		}
	}
	out := make([]edgeDemand, 0, len(est))
	for e, d := range est {
		out = append(out, edgeDemand{e, d})
	}
	slices.SortFunc(out, func(a, b edgeDemand) int { return a.e.compare(b.e) })
	return out
}

// conflictValue computes cf(l, g) of Eq. 8: the estimated overflow of
// routing the group's expected demand on layer l given the residual
// capacity in u.
func conflictValue(u *grid.Usage, l int, est []edgeDemand) float64 {
	g := u.Grid()
	horizontal := g.Layers[l].Dir == grid.Horizontal
	cf := 0.0
	for _, ed := range est {
		if ed.e.horizontal != horizontal {
			continue
		}
		avail := float64(u.Avail(l, g.EdgeIndex(l, ed.e.x, ed.e.y)))
		if over := ed.demand - avail; over > 0 {
			cf += over
		}
	}
	return cf
}

// PredictLayers picks the (H layer, V layer) pair with the least estimated
// conflict (Eq. 8) for a group whose bits have the given candidate trees.
// Ties break toward lower layers for determinism.
func PredictLayers(u *grid.Usage, bitCands [][]geom.Tree) (hLayer, vLayer int) {
	est := estimateUsage(bitCands)
	g := u.Grid()
	bestH, bestHCf := -1, math.Inf(1)
	for _, l := range g.HLayers() {
		if cf := conflictValue(u, l, est); cf < bestHCf {
			bestH, bestHCf = l, cf
		}
	}
	bestV, bestVCf := -1, math.Inf(1)
	for _, l := range g.VLayers() {
		if cf := conflictValue(u, l, est); cf < bestVCf {
			bestV, bestVCf = l, cf
		}
	}
	return bestH, bestV
}
