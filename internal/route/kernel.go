// Pair-cost kernel: the regularity ratios entering c(i,j,p,q) depend only
// on the 2-D topology pair behind the two candidates, so they are stored
// as flattened, immutable per-pair tables, reached through each object's
// stored partner list instead of a hashed map. Every partnered pair's table
// is filled once at build time, in parallel.
package route

import (
	"context"
	"slices"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/topo"
)

// kernel is the precomputed pair-cost state of a problem. After Build it is
// only ever read, so the solvers may call PairCost from any number of
// goroutines.
type kernel struct {
	// nTopo[i] is 1 + the largest TopoIdx among object i's candidates
	// (0 when the object has none).
	nTopo []int
	// backbones[i][ti] points at the backbone tree of 2-D topology ti of
	// object i, nil when no surviving candidate references ti.
	backbones [][]*geom.Tree
	// partners[i] is Partners(i), ascending.
	partners [][]int
	// ratios[i][k] is the ratio table between object i and partners[i][k]:
	// with lo < hi the pair's objects, entry [tlo*nTopo[hi]+thi] is the
	// backbone regularity ratio between 2-D topology tlo of lo and thi of
	// hi. Both objects' slots share the table.
	ratios [][][]float64
}

// buildKernel indexes every object's 2-D topologies and partners and
// precomputes the ratio tables of all partnered pairs, fanning the table
// fills out across the build workers.
func (p *Problem) buildKernel(ctx context.Context, workers int) error {
	n := len(p.Objects)
	p.kern.nTopo = make([]int, n)
	p.kern.backbones = make([][]*geom.Tree, n)
	for i := range p.Cands {
		nt := 0
		for j := range p.Cands[i] {
			if ti := p.Cands[i][j].TopoIdx; ti+1 > nt {
				nt = ti + 1
			}
		}
		p.kern.nTopo[i] = nt
		bbs := make([]*geom.Tree, nt)
		for j := range p.Cands[i] {
			if ti := p.Cands[i][j].TopoIdx; bbs[ti] == nil {
				bbs[ti] = &p.Cands[i][j].Topo.Backbone
			}
		}
		p.kern.backbones[i] = bbs
	}

	p.kern.partners = make([][]int, n)
	p.kern.ratios = make([][][]float64, n)
	type slot struct{ lo, k int } // ratios[lo][k], whose partner is hi > lo
	var fills []slot
	for i := 0; i < n; i++ {
		p.kern.partners[i] = p.partnersOf(i)
		p.kern.ratios[i] = make([][]float64, len(p.kern.partners[i]))
		for k, q := range p.kern.partners[i] {
			if q > i {
				fills = append(fills, slot{i, k})
			}
		}
	}
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterKernelPairsEager, int64(len(fills)))
	}
	err := parallelFor(ctx, workers, len(fills), func(x int) {
		lo, k := fills[x].lo, fills[x].k
		hi := p.kern.partners[lo][k]
		p.kern.ratios[lo][k] = topo.RatioTable(
			p.kern.backbones[lo], p.RepBit(lo),
			p.kern.backbones[hi], p.RepBit(hi),
		)
	})
	if err != nil {
		return err
	}
	for _, f := range fills {
		hi := p.kern.partners[f.lo][f.k]
		p.kern.ratios[hi][p.partnerSlot(hi, f.lo)] = p.kern.ratios[f.lo][f.k]
	}
	return nil
}

// partnerSlot returns the position of q in object i's partner list, or -1.
// A group's objects have ascending indices, so the list is sorted.
func (p *Problem) partnerSlot(i, q int) int {
	if k, ok := slices.BinarySearch(p.kern.partners[i], q); ok {
		return k
	}
	return -1
}

// pairRatio returns the regularity ratio between 2-D topology ti of object
// i and tq of object q (same group, i != q): a slot lookup in i's partner
// list and one table load for partnered pairs, and a direct computation
// for pairs outside the Partners neighborhood (which the solvers never
// price, but direct callers may probe).
func (p *Problem) pairRatio(i, ti, q, tq int) float64 {
	k := p.partnerSlot(i, q)
	if k < 0 {
		return topo.Ratio(
			*p.kern.backbones[i][ti], p.RepBit(i),
			*p.kern.backbones[q][tq], p.RepBit(q),
		)
	}
	tab := p.kern.ratios[i][k]
	if q < i {
		return tab[tq*p.kern.nTopo[i]+ti]
	}
	return tab[ti*p.kern.nTopo[q]+tq]
}
