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

// clusterBit is one unrouted bit of the group being clustered: its address,
// its candidate trees (line 1 of Algorithm 3), each candidate's wirelength
// and regularity derived once, and each candidate's TreeFits answer under
// the current usage (fitsUnknown until asked).
type clusterBit struct {
	ref   bitRef
	trees []geom.Tree
	wl    []int
	regs  []topo.Regularity
	fits  []int8
}

const (
	fitsUnknown int8 = iota
	fitsYes
	fitsNo
)

// cluster is Algorithm 3's working unit: the indices of its member bits,
// the first being its representative, and the candidate index of the
// representative's tree, -1 while the cluster is unrouted. An unrouted
// cluster has a single bit: only routed clusters merge.
type cluster struct {
	bits []int
	tree int
}

// clusterer holds one group's clustering state. Bits are numbered in
// collection order, so a cluster's id is its representative's index.
type clusterer struct {
	r      *route.Routing
	u      *grid.Usage
	gi     int
	hl, vl int
	opt    Options
	bits   []clusterBit
	// ratios[j*(j-1)/2+i] is the lazily allocated table of the bit pair
	// i < j: entry p*len(bits[j].trees)+q is the ratio of bit i's
	// candidate p and bit j's candidate q, or -1 until first asked.
	ratios  [][]float64
	scratch []int32
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

	// Number the unrouted bits; derive every candidate tree's wirelength
	// and regularity once (line 1).
	c := &clusterer{r: r, u: u, gi: gi, opt: opt}
	var all [][]geom.Tree
	for _, oi := range p.GroupObjs[gi] {
		for k, bi := range p.Objects[oi].BitIdx {
			if r.Bits[gi][bi].Routed {
				continue
			}
			ref := bitRef{oi, k, bi}
			b := clusterBit{ref: ref, trees: bitCandidates(p, ref, opt)}
			b.fits = make([]int8, len(b.trees))
			for _, t := range b.trees {
				b.wl = append(b.wl, t.WireLength())
				b.regs = append(b.regs, topo.NewRegularity(t, &g.Bits[bi]))
			}
			c.bits = append(c.bits, b)
			all = append(all, b.trees)
		}
	}
	n := len(c.bits)
	if n == 0 {
		return ClusterStats{}
	}

	// Line 2: layer prediction.
	c.hl, c.vl = PredictLayers(u, all)
	if c.hl < 0 || c.vl < 0 {
		return ClusterStats{BitsLeft: n}
	}
	c.ratios = make([][]float64, n*(n-1)/2)

	// Line 4: one cluster per bit.
	clusters := make([]*cluster, n)
	for i := range clusters {
		clusters[i] = &cluster{bits: []int{i}, tree: -1}
	}

	// Lines 5-15: visit cluster pairs in minimum-cost order. Clusters keep
	// their relative order, so a pair's ids are always (lesser, greater).
	visited := make([]bool, n*n)
	for {
		bestCost, bi, bj, ta, tb := math.Inf(1), -1, -1, -1, -1
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if visited[clusters[i].bits[0]*n+clusters[j].bits[0]] {
					continue
				}
				if cost, pa, pb := c.pairCost(clusters[i], clusters[j]); cost < bestCost {
					bestCost, bi, bj, ta, tb = cost, i, j, pa, pb
				}
			}
		}
		if bi < 0 {
			// Every pair is visited, or no unvisited pair can route.
			break
		}
		a, b := clusters[bi], clusters[bj]
		if ta >= 0 {
			c.route(a, ta)
		}
		// Routing a may have consumed tracks b's tree needs (overlapping
		// shifted topologies); re-verify before committing b.
		if tb >= 0 && c.fitsNow(b.bits[0], tb) {
			c.route(b, tb)
		}
		visited[a.bits[0]*n+b.bits[0]] = true
		// Lines 11-13: merge equal-topology clusters.
		if a.tree >= 0 && b.tree >= 0 && c.ratio(a.bits[0], a.tree, b.bits[0], b.tree) == 1 {
			a.bits = append(a.bits, b.bits...)
			clusters = slices.Delete(clusters, bj, bj+1)
		}
	}

	// Any cluster still unrouted (singleton group or all pairs infeasible):
	// try a direct cheapest-feasible route.
	for _, cl := range clusters {
		if cl.tree >= 0 {
			continue
		}
		b, best := &c.bits[cl.bits[0]], -1
		for q := range b.trees {
			if c.fitsNow(cl.bits[0], q) && (best < 0 || b.wl[q] < b.wl[best]) {
				best = q
			}
		}
		if best >= 0 {
			c.route(cl, best)
		}
	}

	// Record solution objects for routed clusters and compute stats.
	var stats ClusterStats
	for _, cl := range clusters {
		if cl.tree < 0 {
			stats.BitsLeft += len(cl.bits)
			continue
		}
		stats.BitsRouted += len(cl.bits)
		stats.Clusters++
		rep := &c.bits[cl.bits[0]]
		so := route.SolutionObject{
			RepTree: rep.trees[cl.tree],
			RepBit:  rep.ref.bit,
			HLayer:  c.hl,
			VLayer:  c.vl,
		}
		// BitIdx stays in cluster-member order: PinMap rows are built in
		// the same order and the two must correspond index-for-index.
		refs := make([]bitRef, len(cl.bits))
		so.BitIdx = make([]int, len(cl.bits))
		for k, i := range cl.bits {
			refs[k] = c.bits[i].ref
			so.BitIdx[k] = refs[k].bit
		}
		so.PinMap = clusterPinMap(p, refs)
		r.Objects[gi] = append(r.Objects[gi], so)
	}
	return stats
}

// fitsNow reports whether candidate q of bit i takes one more track on the
// predicted layers under the current usage, asking TreeFits once per
// usage state.
func (c *clusterer) fitsNow(i, q int) bool {
	f := &c.bits[i].fits[q]
	if *f == fitsUnknown {
		*f = fitsNo
		if route.TreeFits(c.u, c.bits[i].trees[q], c.hl, c.vl) {
			*f = fitsYes
		}
	}
	return *f == fitsYes
}

// route commits candidate q to the unrouted cluster cl. It is the only
// usage write of the merge loop, so it clears every cached fit.
func (c *clusterer) route(cl *cluster, q int) {
	b := &c.bits[cl.bits[0]]
	cl.tree = q
	route.AddTreeUsage(c.u, b.trees[q], c.hl, c.vl, 1)
	for i := range c.bits {
		clear(c.bits[i].fits)
	}
	c.r.Bits[c.gi][b.ref.bit] = route.BitRoute{Routed: true, Tree: b.trees[q], HLayer: c.hl, VLayer: c.vl}
}

// ratio returns the regularity ratio of candidate p of bit i and candidate
// q of bit j. A ratio is a pure function of its two (bit, tree) pairs and
// symmetric, so each is computed once per pair of bits.
func (c *clusterer) ratio(i, p, j, q int) float64 {
	if i > j {
		i, p, j, q = j, q, i, p
	}
	nq := len(c.bits[j].trees)
	tab := c.ratios[j*(j-1)/2+i]
	if tab == nil {
		tab = make([]float64, len(c.bits[i].trees)*nq)
		for k := range tab {
			tab[k] = -1
		}
		c.ratios[j*(j-1)/2+i] = tab
	}
	v := &tab[p*nq+q]
	if *v < 0 {
		*v, c.scratch = c.bits[i].regs[p].Ratio(&c.bits[j].regs[q], c.scratch)
	}
	return *v
}

// regCost is the regularity term of the pair cost.
func (c *clusterer) regCost(i, p, j, q int) float64 {
	return topo.PairIrregularity(c.ratio(i, p, j, q), c.opt.RegWeight, c.opt.NoShare, 1, 0)
}

// pairCost evaluates the minimum achievable weighted cost of routing the
// pair (wirelength + regularity), along with the best candidate choice for
// each unrouted side (-1 for a routed one). It is +Inf when no legal
// option exists.
func (c *clusterer) pairCost(a, b *cluster) (cost float64, ta, tb int) {
	ia, ib := a.bits[0], b.bits[0]
	switch {
	case a.tree >= 0 && b.tree >= 0:
		return c.regCost(ia, a.tree, ib, b.tree), -1, -1
	case a.tree >= 0:
		cost, tb = c.pairCostRouted(ia, a.tree, ib)
		return cost, -1, tb
	case b.tree >= 0:
		cost, ta = c.pairCostRouted(ib, b.tree, ia)
		return cost, ta, -1
	}
	cost, ta, tb = math.Inf(1), -1, -1
	wa, wb := c.bits[ia].wl, c.bits[ib].wl
	for p := range wa {
		if !c.fitsNow(ia, p) {
			continue
		}
		for q := range wb {
			if !c.fitsNow(ib, q) {
				continue
			}
			if v := float64(wa[p]+wb[q]) + c.regCost(ia, p, ib, q); v < cost {
				cost, ta, tb = v, p, q
			}
		}
	}
	return cost, ta, tb
}

// pairCostRouted prices an unrouted bit beside the routed bit i, whose tree
// is its candidate p; it returns the cost and the chosen candidate of the
// open bit, -1 when none fits.
func (c *clusterer) pairCostRouted(i, p, open int) (float64, int) {
	best, bestQ := math.Inf(1), -1
	for q, wl := range c.bits[open].wl {
		if !c.fitsNow(open, q) {
			continue
		}
		if v := float64(wl) + c.regCost(i, p, open, q); v < best {
			best, bestQ = v, q
		}
	}
	return best, bestQ
}

// clusterPinMap derives per-member pin maps for a cluster whose bits all
// come from one identification object; it returns nil otherwise (bits of
// different objects have no canonical pin correspondence).
func clusterPinMap(p *route.Problem, refs []bitRef) [][]int {
	obj := refs[0].obj
	for _, ref := range refs[1:] {
		if ref.obj != obj {
			return nil
		}
	}
	o := &p.Objects[obj]
	// Representative of the cluster is its first bit; express every
	// member's pins relative to it using the object-level maps.
	repMember := refs[0].member
	repMap := o.PinMap[repMember] // object-rep pin -> cluster-rep pin
	inv := make([]int, len(repMap))
	for objPin, clusterPin := range repMap {
		inv[clusterPin] = objPin
	}
	maps := make([][]int, len(refs))
	for k, ref := range refs {
		m := make([]int, len(repMap))
		for clusterPin := range m {
			m[clusterPin] = o.PinMap[ref.member][inv[clusterPin]]
		}
		maps[k] = m
	}
	return maps
}
