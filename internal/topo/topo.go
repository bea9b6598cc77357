// Package topo implements Streak's synergistic topology generation
// (§III-B): backbone construction per routing object, equivalent topology
// generation for every member bit via similarity-vector pin mapping
// (Algorithm 1), regularity-ratio evaluation between object topologies
// (Eq. 2), and expansion of 2-D topologies into 3-D layer-assigned
// candidates.
package topo

import (
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
	// expanded per 2-D topology. Default 4.
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
	var out geom.Tree
	for _, s := range backbone.Canon().Segs {
		a, oka := mapPt(s.A)
		b, okb := mapPt(s.B)
		if !oka || !okb {
			return geom.Tree{}, false
		}
		if a.X != b.X && a.Y != b.Y {
			return geom.Tree{}, false // mapping broke axis alignment
		}
		if a != b {
			out.Append(geom.S(a, b))
		}
	}
	if !out.Connected(bit.PinLocs()) {
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
	// order.
	BitTrees []geom.Tree
	// Equivalent is false for bits where Algorithm 1 failed and a fresh
	// per-bit Steiner tree was used instead.
	Equivalent []bool
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
		ot := ObjectTopology{Backbone: bb}
		for k, bi := range obj.BitIdx {
			bit := &g.Bits[bi]
			t, ok := Equivalent(bb, rep, bit, obj.PinMap[k])
			if !ok {
				t = steiner.Iterated1Steiner(bit.PinLocs(), steiner.Options{BendWeight: opt.BendWeight})
			}
			ot.BitTrees = append(ot.BitTrees, t)
			ot.Equivalent = append(ot.Equivalent, ok)
		}
		out = append(out, ot)
	}
	if len(out) > 0 {
		var pinSets [][]geom.Point
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
	out := ObjectTopology{Equivalent: append([]bool(nil), ot.Equivalent...)}
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
// are first split at pin locations so no pin can sit in the interior of
// the moved run — otherwise the shift would disconnect it.
func shiftTree(t geom.Tree, pins []geom.Point, d int) (geom.Tree, bool) {
	segs := geom.SplitAt(t.Canon().Segs, pins)
	best := -1
	for i, s := range segs {
		if best == -1 || s.Len() > segs[best].Len() {
			best = i
		}
	}
	if best == -1 || segs[best].Len() < 2 {
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
	var out geom.Tree
	for i, seg := range segs {
		if i != best {
			out.Append(seg)
		}
	}
	out.Append(geom.S(s.A, a), geom.S(a, b), geom.S(b, s.B))
	if !out.Connected(pins) {
		return geom.Tree{}, false
	}
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

// Expand3D turns 2-D object topologies into 3-D candidates on the grid,
// enumerating (H layer, V layer) pairs in increasing via-distance order.
// Candidates whose segments leave the grid are dropped. Results are sorted
// by Cost.
//
// The per-candidate work is layer-independent up to the layer assignment:
// the 2-D edge footprint, wirelength and bend count of a topology are
// computed once (into pooled scratch, via the geom arena kernels) and every
// (H, V) pair then materializes its candidate as two flat edge-run copies —
// no per-pair tree walks, no per-edge map inserts.
func Expand3D(gr *grid.Grid, topos []ObjectTopology, opt Options) []Candidate {
	opt = opt.withDefaults()
	pairs := layerPairs(gr, opt.MaxLayerPairs)
	sc := expandPool.Get().(*expandScratch)
	ar := geom.GetArena()
	var out []Candidate
	for ti := range topos {
		ot := &topos[ti]
		if !sc.precompute2D(gr, ot, ar) {
			continue
		}
		for _, pr := range pairs {
			hl, vl := pr[0], pr[1]
			layerDist := iabs(hl - vl)
			if layerDist == 0 {
				layerDist = 1
			}
			c := Candidate{
				Topo:    *ot,
				TopoIdx: ti,
				HLayer:  hl,
				VLayer:  vl,
				WL:      sc.wl,
				Vias:    sc.bends * layerDist,
			}
			c.Cost = c.WL + opt.ViaWeight*c.Vias
			sc.assemble(&c)
			out = append(out, c)
		}
	}
	geom.PutArena(ar)
	expandPool.Put(sc)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// expandScratch is the reusable state behind Expand3D: dense per-direction
// 2-D edge counters (zeroed via the touched lists after every topology) and
// the layer-independent footprint of the topology under expansion.
type expandScratch struct {
	hCount, vCount     []int32
	hTouched, vTouched []int32
	hUse, vUse         []EdgeUse // Layer left 0; filled per pair by assemble
	masks              []WordMask
	heavy              int
	wl, bends          int
}

var expandPool = sync.Pool{New: func() any { return new(expandScratch) }}

// precompute2D accumulates the layer-independent footprint of ot: per-
// direction sorted edge runs (2-D dense indices — identical on every layer
// of the direction), total wirelength and bend count. It reports false,
// leaving the scratch clean, when any segment leaves the grid — which
// disqualifies the topology for every layer pair.
func (sc *expandScratch) precompute2D(gr *grid.Grid, ot *ObjectTopology, ar *geom.Arena) bool {
	hEdges, vEdges := (gr.W-1)*gr.H, gr.W*(gr.H-1)
	if len(sc.hCount) < hEdges {
		sc.hCount = make([]int32, hEdges)
	}
	if len(sc.vCount) < vEdges {
		sc.vCount = make([]int32, vEdges)
	}
	sc.hTouched, sc.vTouched = sc.hTouched[:0], sc.vTouched[:0]
	sc.wl, sc.bends, sc.heavy = 0, 0, 0
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
			sc.wl += s.Len()
		}
		sc.bends += ar.Bends(t.Segs)
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
	slices.Sort(sc.hTouched)
	slices.Sort(sc.vTouched)
	sc.hUse, sc.vUse = sc.hUse[:0], sc.vUse[:0]
	for _, idx := range sc.hTouched {
		n := sc.hCount[idx]
		sc.hUse = append(sc.hUse, EdgeUse{Idx: idx, N: n})
		sc.hCount[idx] = 0
		if n >= 2 {
			sc.heavy++
		}
	}
	for _, idx := range sc.vTouched {
		n := sc.vCount[idx]
		sc.vUse = append(sc.vUse, EdgeUse{Idx: idx, N: n})
		sc.vCount[idx] = 0
		if n >= 2 {
			sc.heavy++
		}
	}
	return true
}

// assemble materializes the precomputed footprint onto the candidate's
// layer pair: Edges sorted by (Layer, Idx), word masks, heavy list.
func (sc *expandScratch) assemble(c *Candidate) {
	hl, vl := int32(c.HLayer), int32(c.VLayer)
	c.Edges = make([]EdgeUse, 0, len(sc.hUse)+len(sc.vUse))
	appendRun := func(l int32, use []EdgeUse) {
		for _, e := range use {
			c.Edges = append(c.Edges, EdgeUse{Layer: l, Idx: e.Idx, N: e.N})
		}
	}
	if hl < vl {
		appendRun(hl, sc.hUse)
		appendRun(vl, sc.vUse)
	} else {
		appendRun(vl, sc.vUse)
		appendRun(hl, sc.hUse)
	}
	masks := sc.masks[:0]
	for _, e := range c.Edges {
		w := e.Idx >> 6
		if n := len(masks); n > 0 && masks[n-1].Layer == e.Layer && masks[n-1].Word == w {
			masks[n-1].Bits |= 1 << (e.Idx & 63)
		} else {
			masks = append(masks, WordMask{Layer: e.Layer, Word: w, Bits: 1 << (e.Idx & 63)})
		}
	}
	sc.masks = masks
	c.Masks = make([]WordMask, len(masks))
	copy(c.Masks, masks)
	if sc.heavy > 0 {
		c.Heavy = make([]EdgeUse, 0, sc.heavy)
		for _, e := range c.Edges {
			if e.N >= 2 {
				c.Heavy = append(c.Heavy, e)
			}
		}
	}
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
