// Package topo implements Streak's synergistic topology generation
// (§III-B): backbone construction per routing object, equivalent topology
// generation for every member bit via similarity-vector pin mapping
// (Algorithm 1), regularity-ratio evaluation between object topologies
// (Eq. 2), and expansion of 2-D topologies into 3-D layer-assigned
// candidates.
package topo

import (
	"cmp"
	"slices"
	"sort"
	"sync"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ident"
	"repro/internal/signal"
	"repro/internal/steiner"
)

// Options tunes topology generation.
type Options struct {
	// NumBackbones is how many distinct backbone topologies to generate
	// per object. Default 4.
	NumBackbones int
	// BendWeight is the per-bend cost during backbone construction.
	// Default 2.
	BendWeight int
	// ViaWeight is the per-via-level cost used in candidate costs.
	// Default 2.
	ViaWeight int
	// MaxLayerPairs bounds how many (H layer, V layer) combinations are
	// expanded per 2-D topology. Default 6.
	MaxLayerPairs int
}

// withDefaults fills zero fields with default values.
func (o Options) withDefaults() Options {
	if o.NumBackbones == 0 {
		o.NumBackbones = 4
	}
	if o.BendWeight == 0 {
		o.BendWeight = 2
	}
	if o.ViaWeight == 0 {
		o.ViaWeight = 2
	}
	if o.MaxLayerPairs == 0 {
		o.MaxLayerPairs = 6
	}
	return o
}

// Backbones generates backbone topologies for the object from its
// representative bit (§III-B1).
func Backbones(g *signal.Group, obj *ident.Object, opt Options) []geom.Tree {
	opt = opt.withDefaults()
	rep := obj.RepBit(g)
	return steiner.Backbones(rep.PinLocs(), opt.NumBackbones,
		steiner.Options{BendWeight: opt.BendWeight})
}

// Equivalent maps a backbone topology of the representative bit onto
// another member bit (Algorithm 1). Pins map through pinMap; bending points
// inherit their X from the mapped pin sharing their backbone X and their Y
// from the mapped pin sharing their backbone Y (Hanan alignment, Fig. 6).
// ok is false when the mapped tree fails to connect the bit's pins — the
// caller should then fall back to a fresh per-bit topology.
func Equivalent(backbone geom.Tree, rep, bit *signal.Bit, pinMap []int) (t geom.Tree, ok bool) {
	// LUT from each distinct backbone pin coordinate to the mapped bit
	// coordinate (lines 1-2 of Algorithm 1: in our grid the LUT can key on
	// coordinates directly because backbone nodes lie on the Hanan grid of
	// the representative pins).
	mapX := make(map[int]int)
	mapY := make(map[int]int)
	pinAt := make(map[geom.Point]int) // rep pin location -> rep pin index
	for i, p := range rep.Pins {
		if _, seen := mapX[p.Loc.X]; !seen {
			mapX[p.Loc.X] = bit.Pins[pinMap[i]].Loc.X
		}
		if _, seen := mapY[p.Loc.Y]; !seen {
			mapY[p.Loc.Y] = bit.Pins[pinMap[i]].Loc.Y
		}
		if _, seen := pinAt[p.Loc]; !seen {
			pinAt[p.Loc] = i
		}
	}
	mapPt := func(p geom.Point) (geom.Point, bool) {
		if i, isPin := pinAt[p]; isPin {
			return bit.Pins[pinMap[i]].Loc, true
		}
		x, okx := mapX[p.X]
		y, oky := mapY[p.Y]
		if !okx || !oky {
			return geom.Point{}, false
		}
		return geom.Pt(x, y), true
	}
	ar := geom.GetArena()
	canon := ar.Canon(backbone.Segs)
	out := geom.Tree{Segs: make([]geom.Seg, 0, len(canon))}
	ok = true
	for _, s := range canon {
		a, oka := mapPt(s.A)
		b, okb := mapPt(s.B)
		// A node off the LUT, or a mapping that breaks axis alignment,
		// fails the bit.
		if !oka || !okb || a.X != b.X && a.Y != b.Y {
			ok = false
			break
		}
		if a != b {
			out.Segs = append(out.Segs, geom.Seg{A: a, B: b}.Norm())
		}
	}
	geom.PutArena(ar)
	if !ok || !out.Connected(bit.PinLocs()) {
		return geom.Tree{}, false
	}
	return out, true
}

// ObjectTopology is one 2-D routing solution for an object: the backbone
// plus an equivalent (or fallback) topology per member bit.
type ObjectTopology struct {
	// Backbone is the representative topology.
	Backbone geom.Tree
	// BitTrees holds one topology per member of the object, in BitIdx
	// order: the equivalent topology of Algorithm 1, or a fresh per-bit
	// Steiner tree where Algorithm 1 failed.
	BitTrees []geom.Tree
}

// WireLength returns the total wirelength over all member bits.
func (ot *ObjectTopology) WireLength() int {
	wl := 0
	for _, t := range ot.BitTrees {
		wl += t.WireLength()
	}
	return wl
}

// ObjectTopologies builds the 2-D candidate topologies for an object: one
// ObjectTopology per backbone, with equivalent topologies generated for
// every member bit, plus shifted "detour" variants of the best backbone
// (the wire-synthesis escape valve: a U-jog of the main trunk lets the
// solver trade a little wirelength for capacity, which is where Streak's
// WL overhead versus manual designs comes from in Table I).
func ObjectTopologies(g *signal.Group, obj *ident.Object, opt Options) []ObjectTopology {
	opt = opt.withDefaults()
	rep := obj.RepBit(g)
	var out []ObjectTopology
	for _, bb := range Backbones(g, obj, opt) {
		ot := ObjectTopology{
			Backbone: bb,
			BitTrees: make([]geom.Tree, 0, len(obj.BitIdx)),
		}
		for k, bi := range obj.BitIdx {
			bit := &g.Bits[bi]
			t, ok := Equivalent(bb, rep, bit, obj.PinMap[k])
			if !ok {
				t = steiner.Iterated1Steiner(bit.PinLocs(), steiner.Options{BendWeight: opt.BendWeight})
			}
			ot.BitTrees = append(ot.BitTrees, t)
		}
		out = append(out, ot)
	}
	if len(out) > 0 {
		pinSets := make([][]geom.Point, 0, len(obj.BitIdx))
		for _, bi := range obj.BitIdx {
			pinSets = append(pinSets, g.Bits[bi].PinLocs())
		}
		for _, d := range []int{1, -1, 2, -2} {
			if sv, ok := shiftTopology(out[0], rep.PinLocs(), pinSets, d); ok {
				out = append(out, sv)
			}
		}
	}
	return out
}

// shiftTopology U-shifts the longest trunk segment of every bit tree (and
// the backbone) perpendicular by d G-cells, preserving connectivity: the
// segment a-b becomes a -> a+d -> b+d -> b. All bits shift identically so
// the object's regularity is preserved. Returns ok=false when any tree has
// no segment to shift.
func shiftTopology(ot ObjectTopology, repPins []geom.Point, pinSets [][]geom.Point, d int) (ObjectTopology, bool) {
	out := ObjectTopology{BitTrees: make([]geom.Tree, 0, len(ot.BitTrees))}
	var ok bool
	if out.Backbone, ok = shiftTree(ot.Backbone, repPins, d); !ok {
		return ObjectTopology{}, false
	}
	for k, t := range ot.BitTrees {
		st, ok := shiftTree(t, pinSets[k], d)
		if !ok {
			return ObjectTopology{}, false
		}
		out.BitTrees = append(out.BitTrees, st)
	}
	return out, true
}

// shiftTree U-shifts the longest canonical segment of the tree. Segments
// are first split at pin locations so no pin sits in the interior of the
// moved run, and a canonical piece meets the rest of the tree only at its
// ends; the jog joins the same two ends, so the shifted tree connects the
// pins whenever t does. Every tree ObjectTopologies passes in does: a
// Steiner backbone, a connected Equivalent output, or the per-bit Steiner
// fallback. ok is false when no piece is at least 2 long.
func shiftTree(t geom.Tree, pins []geom.Point, d int) (geom.Tree, bool) {
	ar := geom.GetArena()
	segs := ar.SplitAt(ar.Canon(t.Segs), pins)
	best := -1
	for i, s := range segs {
		if best == -1 || s.Len() > segs[best].Len() {
			best = i
		}
	}
	if best == -1 || segs[best].Len() < 2 {
		geom.PutArena(ar)
		return geom.Tree{}, false
	}
	s := segs[best].Norm()
	var off geom.Point
	if s.Horizontal() {
		off = geom.Pt(0, d)
	} else {
		off = geom.Pt(d, 0)
	}
	a, b := s.A.Add(off), s.B.Add(off)
	// The split pieces are normalized and non-degenerate, and so are the
	// three legs of the jog (d != 0, and the moved run is at least 2 long).
	out := geom.Tree{Segs: make([]geom.Seg, 0, len(segs)+2)}
	out.Segs = append(out.Segs, segs[:best]...)
	out.Segs = append(out.Segs, segs[best+1:]...)
	out.Segs = append(out.Segs, geom.S(s.A, a).Norm(), geom.S(a, b).Norm(), geom.S(b, s.B).Norm())
	geom.PutArena(ar)
	return out, true
}

// Candidate is a 3-D routing candidate for an object: a 2-D object
// topology with its horizontal trunks assigned to one H layer and vertical
// trunks to one V layer (§III-B2 keeps each direction on a single
// unidirectional layer for regularity).
type Candidate struct {
	// Topo is the underlying 2-D solution.
	Topo ObjectTopology
	// TopoIdx identifies the underlying 2-D topology within the object's
	// topology list, letting callers cache per-2-D-pair computations
	// across layer variants.
	TopoIdx int
	// HLayer and VLayer are the assigned layer indices.
	HLayer, VLayer int
	// WL is the total wirelength over member bits (G-cell units).
	WL int
	// Vias is the estimated via count: per bit, each bending point needs a
	// stack spanning |HLayer - VLayer| levels.
	Vias int
	// Cost is WL + ViaWeight * Vias, the c(i,j) of formulation (3).
	Cost int
	// Edges lists every 3-D edge the candidate occupies with its track
	// need — the u_el(i,j) of constraint (3c) — sorted by (Layer, Idx).
	// All edges of HLayer and VLayer form two contiguous runs.
	Edges []EdgeUse
	// Masks is the word-level occupancy view of Edges: per (layer, 64-edge
	// word) the bits of the occupied edge indices. A candidate fits a usage
	// state only if every mask ANDs to zero against the state's blocked
	// bitset (necessary, and also sufficient for edges needing one track).
	Masks []WordMask
	// Heavy lists the edges of Edges needing two or more tracks (several
	// member bits sharing an edge); these keep a scalar availability check
	// on top of the mask test. Nil for most candidates.
	Heavy []EdgeUse
}

// EdgeUse is one 3-D edge requirement of a candidate.
type EdgeUse struct {
	// Layer is the metal layer index.
	Layer int32
	// Idx is the dense edge index on the layer.
	Idx int32
	// N is the number of tracks the candidate needs on the edge.
	N int32
}

// WordMask is one 64-edge-wide slice of a candidate's occupancy: Bits has
// bit (idx & 63) set for every occupied edge idx with idx >> 6 == Word on
// the layer.
type WordMask struct {
	Layer int32
	Word  int32
	Bits  uint64
}

// EdgeKey identifies a 3-D grid edge.
type EdgeKey struct {
	// Layer is the metal layer index.
	Layer int
	// Idx is the dense edge index on that layer.
	Idx int
}

// Expand3D turns 2-D object topologies into at most maxN 3-D candidates on
// the grid, enumerating (H layer, V layer) pairs in increasing via-distance
// order. Topologies with a segment off the grid expand to nothing. Results
// are sorted by Cost.
//
// A candidate's cost needs only its topology's wirelength and bend count
// and its layer pair, so the work runs in three steps:
//   - each topology's layer-independent footprint — per-direction sorted
//     edge runs (2-D dense indices, identical on every layer of the
//     direction), their word masks, the heavy-edge count, wirelength and
//     bend count — is computed once into pooled scratch, via the geom arena
//     kernels;
//   - every (topology, layer pair) is priced, the prices are stable-sorted
//     by Cost and trimmed to maxN by trimDiverse;
//   - only the survivors are assembled, each as flat copies of its
//     topology's runs and masks onto its two layers. The survivors' Edges,
//     Masks and Heavy are carved from one allocation each, with full slice
//     expressions, so no candidate's slice can grow into its neighbour's.
func Expand3D(gr *grid.Grid, topos []ObjectTopology, opt Options, maxN int) []Candidate {
	opt = opt.withDefaults()
	pairs := layerPairs(gr, opt.MaxLayerPairs)
	sc := expandPool.Get().(*expandScratch)
	sc.runs, sc.words, sc.prices = sc.runs[:0], sc.words[:0], sc.prices[:0]
	sc.fps = resize(sc.fps, len(topos))
	ar := geom.GetArena()
	for ti := range topos {
		if !sc.footprint(gr, &topos[ti], ar, &sc.fps[ti]) {
			continue
		}
		fp := &sc.fps[ti]
		for _, pr := range pairs {
			layerDist := iabs(pr[0] - pr[1])
			if layerDist == 0 {
				layerDist = 1
			}
			vias := fp.bends * layerDist
			sc.prices = append(sc.prices, price{
				topo: ti, h: pr[0], v: pr[1],
				wl: fp.wl, vias: vias, cost: fp.wl + opt.ViaWeight*vias,
			})
		}
	}
	geom.PutArena(ar)
	slices.SortStableFunc(sc.prices, cmpCost)
	out := sc.assemble(topos, sc.trimDiverse(len(topos), maxN))
	expandPool.Put(sc)
	return out
}

// price is one (2-D topology, layer pair) with its candidate's cost, before
// any edge is assembled.
type price struct {
	topo, h, v     int
	wl, vias, cost int
	rank           int // trimDiverse's pick order
}

func cmpCost(a, b price) int { return cmp.Compare(a.cost, b.cost) }

// footprint is the layer-independent footprint of one 2-D topology: its
// horizontal and vertical edge runs, sc.runs[run[0]:run[1]] and
// [run[1]:run[2]], and their word masks, split the same way in sc.words
// (Layer left 0 in both); how many of its edges need two or more tracks;
// its wirelength and its bend count.
type footprint struct {
	run, word        [3]int
	heavy, wl, bends int
}

// expandScratch is the reusable state behind Expand3D: dense per-direction
// 2-D edge counters (zeroed via the touched lists after every topology),
// the footprints of the topologies under expansion and their prices.
type expandScratch struct {
	hCount, vCount     []int32
	hTouched, vTouched []int32
	runs               []EdgeUse
	words              []WordMask
	fps                []footprint
	prices             []price
	slot, count        []int
}

var expandPool = sync.Pool{New: func() any { return new(expandScratch) }}

// footprint computes the layer-independent footprint of ot into fp,
// appending its runs and masks to the scratch. It reports false, leaving
// the counters clean, when any segment leaves the grid — which
// disqualifies the topology for every layer pair.
func (sc *expandScratch) footprint(gr *grid.Grid, ot *ObjectTopology, ar *geom.Arena, fp *footprint) bool {
	hEdges, vEdges := (gr.W-1)*gr.H, gr.W*(gr.H-1)
	if len(sc.hCount) < hEdges {
		sc.hCount = make([]int32, hEdges)
	}
	if len(sc.vCount) < vEdges {
		sc.vCount = make([]int32, vEdges)
	}
	sc.hTouched, sc.vTouched = sc.hTouched[:0], sc.vTouched[:0]
	*fp = footprint{}
	ok := true
	for _, t := range ot.BitTrees {
		if !ok {
			break
		}
		for _, s := range ar.Canon(t.Segs) {
			// Canonical segments are normalized and non-degenerate, so
			// direction alone picks the dense 2-D index space (EdgeIndex is
			// the same formula on every layer of a direction).
			if s.Horizontal() {
				if s.A.X < 0 || s.B.X > gr.W-1 || s.A.Y < 0 || s.A.Y > gr.H-1 {
					ok = false
					break
				}
				base := s.A.Y * (gr.W - 1)
				for x := s.A.X; x < s.B.X; x++ {
					idx := int32(base + x)
					if sc.hCount[idx] == 0 {
						sc.hTouched = append(sc.hTouched, idx)
					}
					sc.hCount[idx]++
				}
			} else {
				if s.A.Y < 0 || s.B.Y > gr.H-1 || s.A.X < 0 || s.A.X > gr.W-1 {
					ok = false
					break
				}
				for y := s.A.Y; y < s.B.Y; y++ {
					idx := int32(y*gr.W + s.A.X)
					if sc.vCount[idx] == 0 {
						sc.vTouched = append(sc.vTouched, idx)
					}
					sc.vCount[idx]++
				}
			}
			fp.wl += s.Len()
		}
		fp.bends += ar.Bends(t.Segs)
	}
	if !ok {
		for _, idx := range sc.hTouched {
			sc.hCount[idx] = 0
		}
		for _, idx := range sc.vTouched {
			sc.vCount[idx] = 0
		}
		return false
	}
	fp.run[0], fp.word[0] = len(sc.runs), len(sc.words)
	sc.appendRun(sc.hTouched, sc.hCount, fp)
	fp.run[1], fp.word[1] = len(sc.runs), len(sc.words)
	sc.appendRun(sc.vTouched, sc.vCount, fp)
	fp.run[2], fp.word[2] = len(sc.runs), len(sc.words)
	return true
}

// appendRun sorts one direction's touched edges, appends them with their
// track counts to sc.runs and their word masks to sc.words, counts the
// heavy ones into fp, and zeroes their counters.
func (sc *expandScratch) appendRun(touched, count []int32, fp *footprint) {
	slices.Sort(touched)
	m0 := len(sc.words)
	for _, idx := range touched {
		n := count[idx]
		count[idx] = 0
		sc.runs = append(sc.runs, EdgeUse{Idx: idx, N: n})
		if n >= 2 {
			fp.heavy++
		}
		w := idx >> 6
		if k := len(sc.words) - 1; k >= m0 && sc.words[k].Word == w {
			sc.words[k].Bits |= 1 << (idx & 63)
		} else {
			sc.words = append(sc.words, WordMask{Word: w, Bits: 1 << (idx & 63)})
		}
	}
}

// trimDiverse caps the cost-sorted prices at maxN while keeping topology
// diversity: candidates are taken round-robin across 2-D topologies, each
// round visiting the topologies in the order they first appear in the
// cost-sorted list and taking each one's next-cheapest layer pair, so a
// cheap topology's layer variants cannot crowd out the detour topologies
// the solver needs under congestion. The kept prices come back stable-
// sorted by cost.
func (sc *expandScratch) trimDiverse(nTopos, maxN int) []price {
	ps := sc.prices
	if len(ps) <= maxN {
		return ps
	}
	slot, count := resize(sc.slot, nTopos), resize(sc.count, nTopos)
	for t := range slot {
		slot[t], count[t] = -1, 0
	}
	next := 0
	for i := range ps {
		t := ps[i].topo
		if slot[t] < 0 {
			slot[t] = next
			next++
		}
		ps[i].rank = count[t]*nTopos + slot[t] // round, then slot
		count[t]++
	}
	sc.slot, sc.count = slot, count
	slices.SortFunc(ps, func(a, b price) int { return cmp.Compare(a.rank, b.rank) })
	ps = ps[:max(maxN, 0)]
	slices.SortStableFunc(ps, cmpCost)
	return ps
}

// assemble materializes the kept candidates from the stored footprints:
// Edges sorted by (Layer, Idx) — the lower layer's run first — the word
// masks of those edges in the same order, and the heavy edges among them
// (nil when there are none).
func (sc *expandScratch) assemble(topos []ObjectTopology, keep []price) []Candidate {
	if len(keep) == 0 {
		return nil
	}
	nEdges, nMasks, nHeavy := 0, 0, 0
	for _, p := range keep {
		fp := &sc.fps[p.topo]
		nEdges += fp.run[2] - fp.run[0]
		nMasks += fp.word[2] - fp.word[0]
		nHeavy += fp.heavy
	}
	edges := make([]EdgeUse, nEdges)
	masks := make([]WordMask, nMasks)
	heavy := make([]EdgeUse, nHeavy)
	out := make([]Candidate, len(keep))
	for k, p := range keep {
		fp := &sc.fps[p.topo]
		c := &out[k]
		*c = Candidate{
			Topo: topos[p.topo], TopoIdx: p.topo, HLayer: p.h, VLayer: p.v,
			WL: p.wl, Vias: p.vias, Cost: p.cost,
		}
		n, m := fp.run[2]-fp.run[0], fp.word[2]-fp.word[0]
		c.Edges, edges = edges[:0:n], edges[n:]
		c.Masks, masks = masks[:0:m], masks[m:]
		if p.h < p.v {
			sc.put(c, p.h, fp, false)
			sc.put(c, p.v, fp, true)
		} else {
			sc.put(c, p.v, fp, true)
			sc.put(c, p.h, fp, false)
		}
		if fp.heavy > 0 {
			c.Heavy, heavy = heavy[:0:fp.heavy], heavy[fp.heavy:]
			for _, e := range c.Edges {
				if e.N >= 2 {
					c.Heavy = append(c.Heavy, e)
				}
			}
		}
	}
	return out
}

// put appends the footprint's edge run and word masks in one direction to
// the candidate, on layer l.
func (sc *expandScratch) put(c *Candidate, l int, fp *footprint, vertical bool) {
	d := 0
	if vertical {
		d = 1
	}
	for _, e := range sc.runs[fp.run[d]:fp.run[d+1]] {
		c.Edges = append(c.Edges, EdgeUse{Layer: int32(l), Idx: e.Idx, N: e.N})
	}
	for _, w := range sc.words[fp.word[d]:fp.word[d+1]] {
		c.Masks = append(c.Masks, WordMask{Layer: int32(l), Word: w.Word, Bits: w.Bits})
	}
}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// layerPairs lists (hLayer, vLayer) combinations sorted by layer distance
// (preferring neighboring layers to save vias, §III-B2), capped at maxPairs.
func layerPairs(gr *grid.Grid, maxPairs int) [][2]int {
	var pairs [][2]int
	for _, h := range gr.HLayers() {
		for _, v := range gr.VLayers() {
			pairs = append(pairs, [2]int{h, v})
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		di := iabs(pairs[i][0] - pairs[i][1])
		dj := iabs(pairs[j][0] - pairs[j][1])
		if di != dj {
			return di < dj
		}
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	if len(pairs) > maxPairs {
		pairs = pairs[:maxPairs]
	}
	return pairs
}

func iabs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
