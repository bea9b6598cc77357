package topo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/ident"
	"repro/internal/signal"
)

// busGroup builds n parallel two-pin bits from x0 to x1 at consecutive rows.
func busGroup(n, x0, x1, y0 int) signal.Group {
	g := signal.Group{Name: "bus"}
	for i := 0; i < n; i++ {
		g.Bits = append(g.Bits, signal.Bit{
			Driver: 0,
			Pins:   []signal.Pin{{Loc: geom.Pt(x0, y0+i)}, {Loc: geom.Pt(x1, y0+i)}},
		})
	}
	return g
}

// multipinGroup builds n translated copies of a 3-pin bit.
func multipinGroup(n int, base geom.Point) signal.Group {
	g := signal.Group{Name: "mp"}
	for i := 0; i < n; i++ {
		o := base.Add(geom.Pt(0, i))
		g.Bits = append(g.Bits, signal.Bit{
			Driver: 0,
			Pins: []signal.Pin{
				{Loc: o},
				{Loc: o.Add(geom.Pt(6, 0))},
				{Loc: o.Add(geom.Pt(6, 8))},
			},
		})
	}
	return g
}

func TestEquivalentTranslatedBits(t *testing.T) {
	g := multipinGroup(4, geom.Pt(2, 2))
	objs := ident.Partition(0, &g)
	if len(objs) != 1 {
		t.Fatalf("objects = %d, want 1", len(objs))
	}
	obj := objs[0]
	rep := obj.RepBit(&g)
	bbs := Backbones(&g, &obj, Options{})
	if len(bbs) == 0 {
		t.Fatal("no backbones")
	}
	for k, bi := range obj.BitIdx {
		bit := &g.Bits[bi]
		eq, ok := Equivalent(bbs[0], rep, bit, obj.PinMap[k])
		if !ok {
			t.Fatalf("bit %d: Equivalent failed", bi)
		}
		if !eq.Connected(bit.PinLocs()) {
			t.Fatalf("bit %d: equivalent topology disconnected", bi)
		}
		if eq.WireLength() != bbs[0].WireLength() {
			t.Errorf("bit %d: WL %d != backbone WL %d (translated bits)", bi, eq.WireLength(), bbs[0].WireLength())
		}
		if eq.Bends() != bbs[0].Bends() {
			t.Errorf("bit %d: bends %d != backbone bends %d", bi, eq.Bends(), bbs[0].Bends())
		}
	}
}

func TestEquivalentIsIdentityOnRep(t *testing.T) {
	g := multipinGroup(3, geom.Pt(0, 0))
	obj := ident.Partition(0, &g)[0]
	rep := obj.RepBit(&g)
	bbs := Backbones(&g, &obj, Options{})
	eq, ok := Equivalent(bbs[0], rep, rep, obj.PinMap[obj.Rep])
	if !ok {
		t.Fatal("Equivalent failed on representative itself")
	}
	if eq.String() != bbs[0].String() {
		t.Errorf("identity mapping changed topology:\n%s\n%s", eq, bbs[0])
	}
}

func TestEquivalentStretchedBits(t *testing.T) {
	// Bits with same SVs but different pin spacing: equivalence must still
	// hold (shape preserved, lengths differ).
	g := signal.Group{Bits: []signal.Bit{
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(4, 0)}, {Loc: geom.Pt(4, 5)}}},
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 1)}, {Loc: geom.Pt(7, 1)}, {Loc: geom.Pt(7, 9)}}},
	}}
	objs := ident.Partition(0, &g)
	if len(objs) != 1 {
		t.Fatalf("objects = %d, want 1", len(objs))
	}
	obj := objs[0]
	rep := obj.RepBit(&g)
	bbs := Backbones(&g, &obj, Options{})
	for k, bi := range obj.BitIdx {
		bit := &g.Bits[bi]
		eq, ok := Equivalent(bbs[0], rep, bit, obj.PinMap[k])
		if !ok {
			t.Fatalf("bit %d: Equivalent failed", bi)
		}
		if !eq.Connected(bit.PinLocs()) {
			t.Fatalf("bit %d: disconnected", bi)
		}
		if r := Ratio(bbs[0], rep, eq, bit); r != 1 {
			t.Errorf("bit %d: ratio = %v, want 1", bi, r)
		}
	}
}

func TestObjectTopologies(t *testing.T) {
	g := busGroup(5, 0, 10, 0)
	obj := ident.Partition(0, &g)[0]
	ots := ObjectTopologies(&g, &obj, Options{})
	if len(ots) == 0 {
		t.Fatal("no object topologies")
	}
	for i, ot := range ots {
		if len(ot.BitTrees) != 5 {
			t.Fatalf("topology %d: %d bit trees", i, len(ot.BitTrees))
		}
		for k, bi := range obj.BitIdx {
			if !ot.BitTrees[k].Connected(g.Bits[bi].PinLocs()) {
				t.Errorf("topology %d bit %d disconnected", i, bi)
			}
		}
		// Base topologies are minimal (50); shifted detour variants add
		// exactly 2|d| per bit.
		switch wl := ot.WireLength(); wl {
		case 50, 60, 70:
		default:
			t.Errorf("topology %d WL = %d, want 50/60/70", i, wl)
		}
	}
	// The first topology is the minimal one.
	if ots[0].WireLength() != 50 {
		t.Errorf("base topology WL = %d, want 50", ots[0].WireLength())
	}
	// Detour variants are present (the wire-synthesis escape valve).
	found := false
	for _, ot := range ots {
		if ot.WireLength() > 50 {
			found = true
		}
	}
	if !found {
		t.Error("no shifted detour topologies generated")
	}
}

func TestRatioIdenticalStyles(t *testing.T) {
	// Two horizontal two-pin bits: ratio 1 (paper's Fig. 3(a) argument).
	b1 := signal.Bit{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(8, 0)}}}
	b2 := signal.Bit{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 5)}, {Loc: geom.Pt(8, 5)}}}
	t1 := geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(8, 0)))
	t2 := geom.NewTree(geom.S(geom.Pt(0, 5), geom.Pt(8, 5)))
	if r := Ratio(t1, &b1, t2, &b2); r != 1 {
		t.Errorf("ratio = %v, want 1", r)
	}
}

func TestRatioPaperBendExample(t *testing.T) {
	// Fig. 3(a): straight object vs object with one bend; the bend point
	// maps to the sink, ratio still 100%.
	b1 := signal.Bit{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(8, 0)}}}
	t1 := geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(8, 0)))
	b2 := signal.Bit{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 4)}, {Loc: geom.Pt(8, 2)}}}
	t2 := geom.NewTree(geom.S(geom.Pt(0, 4), geom.Pt(8, 4)), geom.S(geom.Pt(8, 4), geom.Pt(8, 2)))
	r := Ratio(t1, &b1, t2, &b2)
	if r != 1 {
		t.Errorf("ratio = %v, want 1 (min RC count is 1 and the horizontal trunk maps)", r)
	}
}

func TestRatioDisjointStyles(t *testing.T) {
	// Horizontal vs vertical two-pin: nothing maps.
	b1 := signal.Bit{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(8, 0)}}}
	t1 := geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(8, 0)))
	b2 := signal.Bit{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(0, 8)}}}
	t2 := geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(0, 8)))
	if r := Ratio(t1, &b1, t2, &b2); r != 0 {
		t.Errorf("ratio = %v, want 0", r)
	}
}

func TestRatioSymmetricAndBounded(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		mk := func() (geom.Tree, signal.Bit) {
			n := 2 + r.Intn(3)
			b := signal.Bit{Driver: 0}
			for i := 0; i < n; i++ {
				b.Pins = append(b.Pins, signal.Pin{Loc: geom.Pt(r.Intn(12), r.Intn(12))})
			}
			var tr geom.Tree
			locs := b.PinLocs()
			for i := 1; i < len(locs); i++ {
				tr.Append(geom.LShape(locs[i-1], locs[i])...)
			}
			return tr, b
		}
		t1, b1 := mk()
		t2, b2 := mk()
		r12 := Ratio(t1, &b1, t2, &b2)
		r21 := Ratio(t2, &b2, t1, &b1)
		if r12 != r21 {
			t.Fatalf("trial %d: ratio asymmetric %v vs %v", trial, r12, r21)
		}
		// Derived once and compared with shared scratch, either order
		// gives the same bits.
		g1, g2 := NewRegularity(t1, &b1), NewRegularity(t2, &b2)
		v12, best := g1.Ratio(&g2, nil)
		v21, _ := g2.Ratio(&g1, best)
		if v12 != r12 || v21 != r12 {
			t.Fatalf("trial %d: Regularity.Ratio = %v, %v, want %v", trial, v12, v21, r12)
		}
		if r12 < 0 || r12 > 1 {
			t.Fatalf("trial %d: ratio %v out of [0,1]", trial, r12)
		}
		if got := Ratio(t1, &b1, t1, &b1); got != 1 {
			t.Fatalf("trial %d: self ratio = %v", trial, got)
		}
	}
}

func TestRCs(t *testing.T) {
	// Z-shape with a pin in the middle of the first leg: the regularity's
	// RCs split the canonical segments there.
	tr := geom.NewTree(
		geom.S(geom.Pt(0, 0), geom.Pt(4, 0)),
		geom.S(geom.Pt(4, 0), geom.Pt(4, 3)),
	)
	bit := signal.Bit{Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(2, 0)}, {Loc: geom.Pt(4, 3)}}}
	if r := NewRegularity(tr, &bit); len(r.rcs) != 3 {
		t.Fatalf("RCs = %d, want 3 (split at interior pin)", len(r.rcs))
	}
}

func TestPairIrregularity(t *testing.T) {
	if got := PairIrregularity(1, 10, 1000, 1, 5); got != 0 {
		t.Errorf("perfect ratio cost = %v, want 0", got)
	}
	if got := PairIrregularity(0.5, 10, 1000, 1, 5); got != 10 {
		t.Errorf("half ratio cost = %v, want 10", got)
	}
	if got := PairIrregularity(0, 10, 1000, 1, 5); got != 1005 {
		t.Errorf("no-share cost = %v, want 1005", got)
	}
	if got := PairIrregularity(1, 10, 1000, 3, 5); got != 10 {
		t.Errorf("layer-distance cost = %v, want 10", got)
	}
}

func TestExpand3D(t *testing.T) {
	gr := grid.New(16, 16, grid.DefaultLayers(4, 8))
	g := busGroup(3, 1, 9, 1)
	obj := ident.Partition(0, &g)[0]
	ots := ObjectTopologies(&g, &obj, Options{})
	cands := Expand3D(gr, ots, Options{}, math.MaxInt)
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	prev := -1
	base := 0
	for i, c := range cands {
		if gr.Layers[c.HLayer].Dir != grid.Horizontal || gr.Layers[c.VLayer].Dir != grid.Vertical {
			t.Fatalf("candidate %d layer directions wrong", i)
		}
		if c.Cost < prev {
			t.Fatalf("candidates not sorted by cost")
		}
		prev = c.Cost
		total := 0
		for _, e := range c.Edges {
			total += int(e.N)
		}
		if total != c.WL {
			t.Errorf("candidate %d usage total %d != WL %d", i, total, c.WL)
		}
		if c.WL != 24 {
			continue // shifted detour variant
		}
		base++
		// Pure horizontal bus: all usage on the H layer, 8 edges per bit.
		for _, e := range c.Edges {
			if int(e.Layer) != c.HLayer {
				t.Errorf("candidate %d uses layer %d", i, e.Layer)
			}
		}
	}
	if base == 0 {
		t.Fatal("no minimal-WL candidates")
	}
}

func TestExpand3DDropsOutOfBounds(t *testing.T) {
	gr := grid.New(4, 4, grid.DefaultLayers(2, 8))
	g := busGroup(2, 0, 9, 0) // x=9 beyond 4-wide grid
	obj := ident.Partition(0, &g)[0]
	ots := ObjectTopologies(&g, &obj, Options{})
	if cands := Expand3D(gr, ots, Options{}, math.MaxInt); len(cands) != 0 {
		t.Errorf("expected no candidates, got %d", len(cands))
	}
}

func TestLayerPairsPreferAdjacent(t *testing.T) {
	gr := grid.New(8, 8, grid.DefaultLayers(6, 4))
	pairs := layerPairs(gr, 100)
	if len(pairs) != 9 {
		t.Fatalf("pairs = %d, want 9", len(pairs))
	}
	if d := iabs(pairs[0][0] - pairs[0][1]); d != 1 {
		t.Errorf("first pair distance = %d, want 1", d)
	}
	for i := 1; i < len(pairs); i++ {
		if iabs(pairs[i][0]-pairs[i][1]) < iabs(pairs[i-1][0]-pairs[i-1][1]) {
			t.Error("pairs not sorted by layer distance")
		}
	}
}
