package postopt

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/pd"
	"repro/internal/route"
	"repro/internal/signal"
	"repro/internal/topo"
)

func TestPredictLayersAvoidsCongestion(t *testing.T) {
	g := grid.New(16, 16, grid.DefaultLayers(4, 4))
	u := grid.NewUsage(g)
	// Fill layer 0 (H) row 5 completely; the bit wants to route on row 5.
	u.AddSeg(0, geom.S(geom.Pt(0, 5), geom.Pt(15, 5)), 4)
	cands := [][]geom.Tree{{geom.NewTree(geom.S(geom.Pt(2, 5), geom.Pt(12, 5)))}}
	hl, vl := PredictLayers(u, cands)
	if hl != 2 {
		t.Errorf("hl = %d, want 2 (layer 0 congested)", hl)
	}
	if g.Layers[vl].Dir != grid.Vertical {
		t.Errorf("vl = %d not vertical", vl)
	}
}

func TestPredictLayersAveragesCandidates(t *testing.T) {
	g := grid.New(16, 16, grid.DefaultLayers(2, 2))
	u := grid.NewUsage(g)
	// Two candidates on different rows: each contributes 0.5 demand.
	cands := [][]geom.Tree{{
		geom.NewTree(geom.S(geom.Pt(0, 3), geom.Pt(8, 3))),
		geom.NewTree(geom.S(geom.Pt(0, 9), geom.Pt(8, 9))),
	}}
	est := estimateUsage(cands)
	i, ok := slices.BinarySearchFunc(est, edge2D{true, 2, 3}, func(ed edgeDemand, e edge2D) int { return ed.e.compare(e) })
	if !ok {
		t.Fatal("estimate has no demand on the horizontal edge at (2, 3)")
	}
	if got := est[i].demand; got != 0.5 {
		t.Errorf("estimate = %v, want 0.5", got)
	}
	if cf := conflictValue(u, 0, est); cf != 0 {
		t.Errorf("conflict on empty grid = %v, want 0", cf)
	}
}

// TestPredictLayersTieBreaksLow: two H layers (and two V layers) with
// identical capacity see identical overflow, summed from demands weighted
// 1/3, 1/4, ... 1/7, so the lowest pair must win on every call. A sum
// taken in map order differs in its last bits from call to call.
func TestPredictLayersTieBreaksLow(t *testing.T) {
	u := grid.NewUsage(grid.New(40, 40, grid.DefaultLayers(4, 1)))
	var cands [][]geom.Tree
	for b := 0; b < 12; b++ {
		var trees []geom.Tree
		for c := 0; c < 3+b%5; c++ {
			y, x := 10+c, 30+c
			trees = append(trees, geom.NewTree(
				geom.S(geom.Pt(2+b, y), geom.Pt(x, y)),
				geom.S(geom.Pt(x, y), geom.Pt(x, 25+b%4))))
		}
		cands = append(cands, trees)
	}
	if cf := conflictValue(u, 0, estimateUsage(cands)); cf == 0 {
		t.Fatal("demand does not overflow; the test cannot see a tie-break")
	}
	for i := 0; i < 200; i++ {
		if hl, vl := PredictLayers(u, cands); hl != 0 || vl != 1 {
			t.Fatalf("call %d: PredictLayers = (%d, %d), want (0, 1)", i, hl, vl)
		}
	}
}

// congestedDesign: two identical overlapping 3-bit buses, one H layer pair,
// capacity 1 on layer 0 rows; phase-1 routes one group, clustering must
// recover bits of the other on the alternate rows/layers.
func overlapDesign(extraLayers int) *signal.Design {
	d := &signal.Design{
		Name: "overlap",
		Grid: signal.GridSpec{W: 24, H: 12, NumLayers: 2 + extraLayers, EdgeCap: 1},
	}
	for gi := 0; gi < 2; gi++ {
		var g signal.Group
		for b := 0; b < 3; b++ {
			g.Bits = append(g.Bits, signal.Bit{
				Driver: 0,
				Pins:   []signal.Pin{{Loc: geom.Pt(2, 2+b)}, {Loc: geom.Pt(20, 2+b)}}},
			)
		}
		d.Groups = append(d.Groups, g)
	}
	return d
}

func TestClusterAndRouteRoutesUnroutedBits(t *testing.T) {
	d := overlapDesign(0) // 1 H + 1 V layer: only one group can fit
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := pd.Solve(p)
	r := p.ExtractRouting(res.Assignment)
	u := r.UsageOf(p.Grid)
	before := 0
	for gi := range r.Bits {
		for _, b := range r.Bits[gi] {
			if b.Routed {
				before++
			}
		}
	}
	stats := ClusterAndRoute(p, r, u, Options{})
	after := 0
	for gi := range r.Bits {
		for _, b := range r.Bits[gi] {
			if b.Routed {
				after++
			}
		}
	}
	if after < before {
		t.Fatalf("clustering lost routes: %d -> %d", before, after)
	}
	if stats.BitsRouted+stats.BitsLeft == 0 {
		t.Fatal("clustering did not consider any unrouted bits")
	}
	if u.Overflow() != 0 {
		t.Fatalf("clustering overflowed the grid by %d", u.Overflow())
	}
}

func TestClusterAndRouteImprovesWithMoreLayers(t *testing.T) {
	// With 4 layers the unrouted group's bits all fit on the second H
	// layer: clustering must route every remaining bit.
	d := overlapDesign(2)
	d.Grid.EdgeCap = 1
	p, err := route.Build(d, route.Options{MaxCandidates: 2, Topo: topo.Options{NumBackbones: 1}})
	if err != nil {
		t.Fatal(err)
	}
	res := pd.Solve(p)
	r := p.ExtractRouting(res.Assignment)
	u := r.UsageOf(p.Grid)
	ClusterAndRoute(p, r, u, Options{})
	for gi := range r.Bits {
		for bi, b := range r.Bits[gi] {
			if !b.Routed {
				t.Errorf("group %d bit %d still unrouted", gi, bi)
			}
		}
	}
	if u.Overflow() != 0 {
		t.Fatalf("overflow %d", u.Overflow())
	}
}

func TestClusterSolutionObjectsRecorded(t *testing.T) {
	d := overlapDesign(0)
	p, _ := route.Build(d, route.Options{})
	res := pd.Solve(p)
	r := p.ExtractRouting(res.Assignment)
	u := r.UsageOf(p.Grid)
	nBefore := len(r.Objects[0]) + len(r.Objects[1])
	stats := ClusterAndRoute(p, r, u, Options{})
	nAfter := len(r.Objects[0]) + len(r.Objects[1])
	if stats.Clusters > 0 && nAfter <= nBefore {
		t.Error("clusters created but no solution objects recorded")
	}
}

// refineDesign builds one group whose three bits share a topology but one
// bit has a much closer sink (Fig. 4(b) situation).
func refineDesign() *signal.Design {
	d := &signal.Design{
		Name: "refine",
		Grid: signal.GridSpec{W: 32, H: 32, NumLayers: 4, EdgeCap: 8},
	}
	var g signal.Group
	// Two far bits and one near bit, all east two-pin style (same SVs).
	g.Bits = append(g.Bits,
		signal.Bit{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 10)}, {Loc: geom.Pt(22, 10)}}},
		signal.Bit{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 11)}, {Loc: geom.Pt(22, 11)}}},
		signal.Bit{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 12)}, {Loc: geom.Pt(6, 12)}}},
	)
	d.Groups = []signal.Group{g}
	return d
}

func TestFindViolations(t *testing.T) {
	d := refineDesign()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := pd.Solve(p)
	r := p.ExtractRouting(res.Assignment)
	vios := findViolations(d, r, measure(d, r), Options{})
	if len(vios) == 0 {
		t.Skip("identification split the short bit into its own object; no class to violate")
	}
	v := vios[0]
	if v.current >= v.target {
		t.Errorf("violation current %d >= target %d", v.current, v.target)
	}
}

func TestRefineFixesDeviation(t *testing.T) {
	// Force one object: same SVs, one sink much closer. All three bits are
	// east-style so they identify together; distances 20, 20, 4.
	d := refineDesign()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := pd.Solve(p)
	r := p.ExtractRouting(res.Assignment)
	u := r.UsageOf(p.Grid)
	before := CountViolatedGroups(d, r, Options{})
	if before == 0 {
		t.Skip("no violation produced; design too lenient")
	}
	stats := Refine(p, r, u, Options{})
	if stats.GroupsAfter >= stats.GroupsBefore {
		t.Errorf("refinement did not reduce violations: %d -> %d", stats.GroupsBefore, stats.GroupsAfter)
	}
	if stats.PinsFixed == 0 {
		t.Error("no pins fixed")
	}
	if stats.AddedWL <= 0 {
		t.Error("detours must add wirelength")
	}
	// The detoured tree still connects its pins and usage stays legal.
	for bi := range r.Bits[0] {
		b := r.Bits[0][bi]
		if !b.Routed {
			continue
		}
		if !b.Tree.Connected(d.Groups[0].Bits[bi].PinLocs()) {
			t.Errorf("bit %d disconnected after refinement", bi)
		}
	}
	if u.Overflow() != 0 {
		t.Errorf("refinement overflowed by %d", u.Overflow())
	}
}

func TestRefineRespectsCapacity(t *testing.T) {
	// Zero spare capacity anywhere: refinement must not fix anything and
	// must not overflow.
	d := refineDesign()
	d.Grid.EdgeCap = 1
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := pd.Solve(p)
	r := p.ExtractRouting(res.Assignment)
	u := r.UsageOf(p.Grid)
	// Saturate every edge.
	g := p.Grid
	for l := range g.Layers {
		for idx := 0; idx < g.EdgeCount(l); idx++ {
			for u.Avail(l, idx) > 0 {
				u.Add(l, idx, 1)
			}
		}
	}
	stats := Refine(p, r, u, Options{})
	if stats.PinsFixed != 0 {
		t.Errorf("fixed %d pins with zero capacity", stats.PinsFixed)
	}
}
