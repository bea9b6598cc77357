package topo

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/benchgen"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ident"
	"repro/internal/signal"
)

// refExpand3D and refTrimDiverse are the expansion Expand3D replaced:
// assemble every (topology, layer pair) candidate, sort them all by cost,
// then trim. They are the reference the priced, trim-first expansion must
// match field for field.
func refExpand3D(gr *grid.Grid, topos []ObjectTopology, opt Options) []Candidate {
	opt = opt.withDefaults()
	pairs := layerPairs(gr, opt.MaxLayerPairs)
	ar := geom.GetArena()
	defer geom.PutArena(ar)
	var out []Candidate
	for ti := range topos {
		ot := &topos[ti]
		fp, ok := refFootprint(gr, ot, ar)
		if !ok {
			continue
		}
		for _, pr := range pairs {
			hl, vl := pr[0], pr[1]
			layerDist := iabs(hl - vl)
			if layerDist == 0 {
				layerDist = 1
			}
			c := Candidate{Topo: *ot, TopoIdx: ti, HLayer: hl, VLayer: vl, WL: fp.wl, Vias: fp.bends * layerDist}
			c.Cost = c.WL + opt.ViaWeight*c.Vias
			fp.assemble(&c)
			out = append(out, c)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// refFP is one topology's 2-D footprint: per-direction sorted edge runs,
// the heavy-edge count, wirelength and bend count.
type refFP struct {
	hUse, vUse []EdgeUse
	heavy      int
	wl, bends  int
}

func refFootprint(gr *grid.Grid, ot *ObjectTopology, ar *geom.Arena) (refFP, bool) {
	var fp refFP
	hCount, vCount := map[int32]int32{}, map[int32]int32{}
	for _, t := range ot.BitTrees {
		for _, s := range ar.Canon(t.Segs) {
			if s.Horizontal() {
				if s.A.X < 0 || s.B.X > gr.W-1 || s.A.Y < 0 || s.A.Y > gr.H-1 {
					return refFP{}, false
				}
				for x := s.A.X; x < s.B.X; x++ {
					hCount[int32(s.A.Y*(gr.W-1)+x)]++
				}
			} else {
				if s.A.Y < 0 || s.B.Y > gr.H-1 || s.A.X < 0 || s.A.X > gr.W-1 {
					return refFP{}, false
				}
				for y := s.A.Y; y < s.B.Y; y++ {
					vCount[int32(y*gr.W+s.A.X)]++
				}
			}
			fp.wl += s.Len()
		}
		fp.bends += ar.Bends(t.Segs)
	}
	run := func(count map[int32]int32) []EdgeUse {
		var use []EdgeUse
		for idx, n := range count {
			use = append(use, EdgeUse{Idx: idx, N: n})
			if n >= 2 {
				fp.heavy++
			}
		}
		slices.SortFunc(use, func(a, b EdgeUse) int { return cmp.Compare(a.Idx, b.Idx) })
		return use
	}
	fp.hUse, fp.vUse = run(hCount), run(vCount)
	return fp, true
}

func (fp *refFP) assemble(c *Candidate) {
	hl, vl := int32(c.HLayer), int32(c.VLayer)
	c.Edges = make([]EdgeUse, 0, len(fp.hUse)+len(fp.vUse))
	appendRun := func(l int32, use []EdgeUse) {
		for _, e := range use {
			c.Edges = append(c.Edges, EdgeUse{Layer: l, Idx: e.Idx, N: e.N})
		}
	}
	if hl < vl {
		appendRun(hl, fp.hUse)
		appendRun(vl, fp.vUse)
	} else {
		appendRun(vl, fp.vUse)
		appendRun(hl, fp.hUse)
	}
	c.Masks = []WordMask{}
	for _, e := range c.Edges {
		w := e.Idx >> 6
		if n := len(c.Masks); n > 0 && c.Masks[n-1].Layer == e.Layer && c.Masks[n-1].Word == w {
			c.Masks[n-1].Bits |= 1 << (e.Idx & 63)
		} else {
			c.Masks = append(c.Masks, WordMask{Layer: e.Layer, Word: w, Bits: 1 << (e.Idx & 63)})
		}
	}
	if fp.heavy > 0 {
		for _, e := range c.Edges {
			if e.N >= 2 {
				c.Heavy = append(c.Heavy, e)
			}
		}
	}
}

func refTrimDiverse(cands []Candidate, maxN int) []Candidate {
	if len(cands) <= maxN {
		return cands
	}
	byTopo := make(map[int][]Candidate)
	var order []int
	for _, c := range cands { // already cost-sorted
		if _, seen := byTopo[c.TopoIdx]; !seen {
			order = append(order, c.TopoIdx)
		}
		byTopo[c.TopoIdx] = append(byTopo[c.TopoIdx], c)
	}
	out := make([]Candidate, 0, maxN)
	for round := 0; len(out) < maxN; round++ {
		added := false
		for _, ti := range order {
			if round < len(byTopo[ti]) && len(out) < maxN {
				out = append(out, byTopo[ti][round])
				added = true
			}
		}
		if !added {
			break
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}

// namedDesign is one reference design.
type namedDesign struct {
	name string
	d    *signal.Design
}

// referenceDesigns are the Industry presets at scale 0.1 and the
// degenerate presets.
func referenceDesigns(t *testing.T) []namedDesign {
	var designs []namedDesign
	for n := 1; n <= 7; n++ {
		designs = append(designs, namedDesign{benchgen.Industry(n).Name, benchgen.Scale(benchgen.Industry(n), 0.1).Generate()})
	}
	for _, name := range benchgen.DegeneratePresets() {
		d, err := benchgen.Degenerate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, namedDesign{name, d})
	}
	return designs
}

// TestExpand3DMatchesAssembleAll checks the priced, trim-first expansion
// against the reference that assembles every candidate and trims after:
// on every object of the reference designs, with a cap of 1, of 12 and of
// more than every candidate, the candidates must be equal field for field
// and in order — edges, masks and heavy edges included.
func TestExpand3DMatchesAssembleAll(t *testing.T) {
	trimmed := 0
	for _, nd := range referenceDesigns(t) {
		d := nd.d
		gr := grid.New(d.Grid.W, d.Grid.H, grid.DefaultLayers(d.Grid.NumLayers, d.Grid.EdgeCap))
		for gi := range d.Groups {
			g := &d.Groups[gi]
			for _, obj := range ident.Partition(gi, g) {
				ots := ObjectTopologies(g, &obj, Options{})
				all := refExpand3D(gr, ots, Options{})
				for _, maxN := range []int{1, 12, math.MaxInt} {
					want := refTrimDiverse(all, maxN)
					if len(want) < len(all) {
						trimmed++
					}
					if got := Expand3D(gr, ots, Options{}, maxN); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s group %d, object of bit %d, cap %d: Expand3D differs from assemble-all-then-trim",
							nd.name, gi, obj.BitIdx[0], maxN)
					}
				}
			}
		}
	}
	if trimmed == 0 {
		t.Fatal("no object had more candidates than a cap; the trim went unchecked")
	}
}
