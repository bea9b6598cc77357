package postopt

import (
	"context"
	"fmt"
	"math"
	"slices"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/signal"
	"repro/internal/steiner"
	"repro/internal/topo"
)

// Options tunes the post-optimization stage.
type Options struct {
	// RegWeight scales the regularity term of the cluster pair cost.
	// Default 20.
	RegWeight float64
	// NoShare is the pair cost when topologies share no RC. Default 2000.
	NoShare float64
	// BendWeight is used for fallback per-bit Steiner trees. Default 2.
	BendWeight int
	// DistFrac is the source-to-sink deviation threshold as a fraction of
	// the group's maximum initial distance (the paper uses 50 %).
	// Default 0.5.
	DistFrac float64
}

func (o Options) withDefaults() Options {
	if o.RegWeight == 0 {
		o.RegWeight = 20
	}
	if o.NoShare == 0 {
		o.NoShare = 2000
	}
	if o.BendWeight == 0 {
		o.BendWeight = 2
	}
	if o.DistFrac == 0 {
		o.DistFrac = 0.5
	}
	return o
}

// ClusterStats summarizes one clustering pass.
type ClusterStats struct {
	// BitsRouted counts bits the pass managed to route.
	BitsRouted int
	// BitsLeft counts bits that stayed unrouted.
	BitsLeft int
	// Clusters counts the solution clusters created.
	Clusters int
}

// bitRef addresses one unrouted bit within a group: the owning object
// (problem-wide index), member position, and group-relative bit index.
type bitRef struct {
	obj, member, bit int
}

// cluster is Algorithm 3's working unit.
type cluster struct {
	id     int
	bits   []bitRef
	routed bool
	trees  []geom.Tree // per bits entry when routed
}

// ClusterAndRoute runs layer prediction plus bottom-up clustering
// (Algorithm 3) for every group that still has unrouted bits, treating
// each bit as an individual routing object for flexibility (Fig. 7). It
// mutates the routing and usage in place and returns statistics.
func ClusterAndRoute(p *route.Problem, r *route.Routing, u *grid.Usage, opt Options) ClusterStats {
	stats, _ := ClusterAndRouteCtx(context.Background(), p, r, u, opt)
	return stats
}

// ClusterAndRouteCtx is ClusterAndRoute honoring the context: cancellation
// is checked between groups, so the call returns promptly with ctx's error
// and the statistics of the groups already processed. The routing and usage
// stay consistent — a group is either fully clustered or untouched.
func ClusterAndRouteCtx(ctx context.Context, p *route.Problem, r *route.Routing, u *grid.Usage, opt Options) (ClusterStats, error) {
	opt = opt.withDefaults()
	var stats ClusterStats
	err := obs.Do(ctx, obs.StageCluster, 0, func(ctx context.Context) error {
		for gi := range p.Design.Groups {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("postopt: cluster: %w", err)
			}
			if r.GroupRouted(gi) {
				continue
			}
			stats = addStats(stats, clusterGroup(p, r, u, gi, opt))
		}
		return nil
	})
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterClusterBitsRouted, int64(stats.BitsRouted))
		rec.Add(obs.CounterClusterBitsLeft, int64(stats.BitsLeft))
		rec.Add(obs.CounterClusterClusters, int64(stats.Clusters))
	}
	return stats, err
}

func addStats(a, b ClusterStats) ClusterStats {
	a.BitsRouted += b.BitsRouted
	a.BitsLeft += b.BitsLeft
	a.Clusters += b.Clusters
	return a
}

// bitCandidates returns the candidate trees of one bit: its equivalent
// topologies from the object's distinct 2-D candidates plus a fallback
// fresh Steiner tree (line 1 of Algorithm 3).
func bitCandidates(p *route.Problem, ref bitRef, opt Options) []geom.Tree {
	seenTopo := map[int]bool{}
	var out []geom.Tree
	for _, c := range p.Cands[ref.obj] {
		if seenTopo[c.TopoIdx] {
			continue
		}
		seenTopo[c.TopoIdx] = true
		out = append(out, c.Topo.BitTrees[ref.member])
	}
	g := p.Group(ref.obj)
	bit := &g.Bits[ref.bit]
	fb := steiner.Iterated1Steiner(bit.PinLocs(), steiner.Options{BendWeight: opt.BendWeight})
	key := fb.Key()
	if !slices.ContainsFunc(out, func(t geom.Tree) bool { return t.Key() == key }) {
		out = append(out, fb)
	}
	return out
}

// clusterGroup runs Algorithm 3 on one group.
func clusterGroup(p *route.Problem, r *route.Routing, u *grid.Usage, gi int, opt Options) ClusterStats {
	g := &p.Design.Groups[gi]

	// Collect unrouted bits with their owning objects.
	var refs []bitRef
	for _, oi := range p.GroupObjs[gi] {
		for k, bi := range p.Objects[oi].BitIdx {
			if !r.Bits[gi][bi].Routed {
				refs = append(refs, bitRef{oi, k, bi})
			}
		}
	}
	if len(refs) == 0 {
		return ClusterStats{}
	}

	// Candidate trees per bit and layer prediction (lines 1-2).
	cands := make(map[bitRef][]geom.Tree, len(refs))
	var all [][]geom.Tree
	for _, ref := range refs {
		c := bitCandidates(p, ref, opt)
		cands[ref] = c
		all = append(all, c)
	}
	hl, vl := PredictLayers(u, all)
	if hl < 0 || vl < 0 {
		return ClusterStats{BitsLeft: len(refs)}
	}

	// Line 4: one cluster per bit.
	clusters := make([]*cluster, len(refs))
	for i, ref := range refs {
		clusters[i] = &cluster{id: i, bits: []bitRef{ref}}
	}

	bitOf := func(ref bitRef) *signal.Bit { return &g.Bits[ref.bit] }

	// pairCost evaluates the minimum achievable weighted cost of routing
	// the pair (wirelength + regularity), along with the best candidate
	// choice for each unrouted side. Infinite when no legal option exists.
	pairCost := func(a, b *cluster) (cost float64, ta, tb geom.Tree, ok bool) {
		regCost := func(t1 geom.Tree, b1 *signal.Bit, t2 geom.Tree, b2 *signal.Bit) float64 {
			ratio := topo.Ratio(t1, b1, t2, b2)
			return topo.PairIrregularity(ratio, opt.RegWeight, opt.NoShare, 1, 0)
		}
		switch {
		case a.routed && b.routed:
			return regCost(a.trees[0], bitOf(a.bits[0]), b.trees[0], bitOf(b.bits[0])), geom.Tree{}, geom.Tree{}, true
		case a.routed:
			cost, _, tb, ok := pairCostRoutedFirst(a, b, cands, bitOf, u, hl, vl, regCost)
			return cost, geom.Tree{}, tb, ok
		case b.routed:
			cost, _, ta, ok := pairCostRoutedFirst(b, a, cands, bitOf, u, hl, vl, regCost)
			return cost, ta, geom.Tree{}, ok
		}
		best := math.Inf(1)
		var bestA, bestB geom.Tree
		for _, t1 := range cands[a.bits[0]] {
			if !route.TreeFits(u, t1, hl, vl) {
				continue
			}
			for _, t2 := range cands[b.bits[0]] {
				if !route.TreeFits(u, t2, hl, vl) {
					continue
				}
				c := float64(t1.WireLength()+t2.WireLength()) +
					regCost(t1, bitOf(a.bits[0]), t2, bitOf(b.bits[0]))
				if c < best {
					best, bestA, bestB = c, t1, t2
				}
			}
		}
		return best, bestA, bestB, !math.IsInf(best, 1)
	}

	routeCluster := func(c *cluster, t geom.Tree) {
		c.routed = true
		c.trees = []geom.Tree{t}
		route.AddTreeUsage(u, t, hl, vl, 1)
		ref := c.bits[0]
		r.Bits[gi][ref.bit] = route.BitRoute{Routed: true, Tree: t, HLayer: hl, VLayer: vl}
	}

	// Lines 5-15: visit cluster pairs in minimum-cost order.
	visited := make(map[[2]int]bool)
	for {
		type pick struct {
			ai, bi int
			cost   float64
			ta, tb geom.Tree
			ok     bool
		}
		best := pick{cost: math.Inf(1)}
		found := false
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				key := [2]int{clusters[i].id, clusters[j].id}
				if visited[key] {
					continue
				}
				found = true
				c, ta, tb, ok := pairCost(clusters[i], clusters[j])
				if ok && c < best.cost {
					best = pick{i, j, c, ta, tb, ok}
				}
			}
		}
		if !found {
			break
		}
		if !best.ok {
			// Every unvisited pair is infeasible; mark them visited.
			for i := 0; i < len(clusters); i++ {
				for j := i + 1; j < len(clusters); j++ {
					visited[[2]int{clusters[i].id, clusters[j].id}] = true
				}
			}
			break
		}
		a, b := clusters[best.ai], clusters[best.bi]
		if !a.routed && len(best.ta.Segs) > 0 {
			routeCluster(a, best.ta)
		}
		// Routing a may have consumed tracks b's tree needs (overlapping
		// shifted topologies); re-verify before committing b.
		if !b.routed && len(best.tb.Segs) > 0 && route.TreeFits(u, best.tb, hl, vl) {
			routeCluster(b, best.tb)
		}
		visited[[2]int{a.id, b.id}] = true
		// Lines 11-13: merge equal-topology clusters.
		if a.routed && b.routed {
			if topo.Ratio(a.trees[0], bitOf(a.bits[0]), b.trees[0], bitOf(b.bits[0])) == 1 {
				a.bits = append(a.bits, b.bits...)
				a.trees = append(a.trees, b.trees...)
				clusters = append(clusters[:best.bi], clusters[best.bi+1:]...)
			}
		}
	}

	// Any cluster still unrouted (singleton group or all pairs infeasible):
	// try a direct cheapest-feasible route.
	for _, c := range clusters {
		if c.routed {
			continue
		}
		var bestT geom.Tree
		bestWL := math.MaxInt
		for _, t := range cands[c.bits[0]] {
			if route.TreeFits(u, t, hl, vl) && t.WireLength() < bestWL {
				bestWL, bestT = t.WireLength(), t
			}
		}
		if bestWL < math.MaxInt {
			routeCluster(c, bestT)
		}
	}

	// Record solution objects for routed clusters and compute stats.
	var stats ClusterStats
	for _, c := range clusters {
		if !c.routed {
			stats.BitsLeft += len(c.bits)
			continue
		}
		stats.BitsRouted += len(c.bits)
		stats.Clusters++
		so := route.SolutionObject{
			RepTree: c.trees[0],
			RepBit:  c.bits[0].bit,
			HLayer:  hl,
			VLayer:  vl,
		}
		// BitIdx stays in cluster-member order: PinMap rows are built in
		// the same order and the two must correspond index-for-index.
		for _, ref := range c.bits {
			so.BitIdx = append(so.BitIdx, ref.bit)
		}
		so.PinMap = clusterPinMap(p, c)
		r.Objects[gi] = append(r.Objects[gi], so)
	}
	return stats
}

// pairCostRoutedFirst handles the routed/unrouted case with the routed
// cluster first; it returns the cost and the chosen tree for the unrouted
// side.
func pairCostRoutedFirst(routed, open *cluster, cands map[bitRef][]geom.Tree,
	bitOf func(bitRef) *signal.Bit, u *grid.Usage, hl, vl int,
	regCost func(geom.Tree, *signal.Bit, geom.Tree, *signal.Bit) float64,
) (float64, geom.Tree, geom.Tree, bool) {
	best := math.Inf(1)
	var bestT geom.Tree
	for _, t := range cands[open.bits[0]] {
		if !route.TreeFits(u, t, hl, vl) {
			continue
		}
		c := float64(t.WireLength()) + regCost(routed.trees[0], bitOf(routed.bits[0]), t, bitOf(open.bits[0]))
		if c < best {
			best, bestT = c, t
		}
	}
	return best, geom.Tree{}, bestT, !math.IsInf(best, 1)
}

// clusterPinMap derives per-member pin maps for a cluster whose bits all
// come from one identification object; it returns nil otherwise (bits of
// different objects have no canonical pin correspondence).
func clusterPinMap(p *route.Problem, c *cluster) [][]int {
	obj := c.bits[0].obj
	for _, ref := range c.bits[1:] {
		if ref.obj != obj {
			return nil
		}
	}
	o := &p.Objects[obj]
	// Representative of the cluster is its first bit; express every
	// member's pins relative to it using the object-level maps.
	repMember := c.bits[0].member
	repMap := o.PinMap[repMember] // object-rep pin -> cluster-rep pin
	inv := make([]int, len(repMap))
	for objPin, clusterPin := range repMap {
		inv[clusterPin] = objPin
	}
	maps := make([][]int, len(c.bits))
	for k, ref := range c.bits {
		m := make([]int, len(repMap))
		for clusterPin := range m {
			m[clusterPin] = o.PinMap[ref.member][inv[clusterPin]]
		}
		maps[k] = m
	}
	return maps
}
