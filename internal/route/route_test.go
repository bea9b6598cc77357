package route

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/signal"
)

// smallDesign builds a 2-group design on a roomy grid: a 3-bit horizontal
// bus and a 2-bit L-shaped group.
func smallDesign() *signal.Design {
	d := &signal.Design{
		Name: "small",
		Grid: signal.GridSpec{W: 24, H: 24, NumLayers: 4, EdgeCap: 6},
	}
	var bus signal.Group
	bus.Name = "bus"
	for i := 0; i < 3; i++ {
		bus.Bits = append(bus.Bits, signal.Bit{
			Driver: 0,
			Pins:   []signal.Pin{{Loc: geom.Pt(2, 2+i)}, {Loc: geom.Pt(14, 2+i)}},
		})
	}
	var lg signal.Group
	lg.Name = "lshape"
	for i := 0; i < 2; i++ {
		lg.Bits = append(lg.Bits, signal.Bit{
			Driver: 0,
			Pins:   []signal.Pin{{Loc: geom.Pt(4, 10+i)}, {Loc: geom.Pt(12, 16+i)}},
		})
	}
	d.Groups = []signal.Group{bus, lg}
	return d
}

func TestBuild(t *testing.T) {
	p, err := Build(smallDesign(), Options{})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if len(p.Objects) != 2 {
		t.Fatalf("objects = %d, want 2", len(p.Objects))
	}
	for i, cands := range p.Cands {
		if len(cands) == 0 {
			t.Fatalf("object %d has no candidates", i)
		}
		if len(cands) > p.Opt.MaxCandidates {
			t.Fatalf("object %d has %d candidates > cap", i, len(cands))
		}
	}
	if len(p.GroupObjs) != 2 || len(p.GroupObjs[0]) != 1 || len(p.GroupObjs[1]) != 1 {
		t.Errorf("GroupObjs = %v", p.GroupObjs)
	}
}

func TestBuildRejectsInvalidDesign(t *testing.T) {
	d := smallDesign()
	d.Grid.W = 1
	if _, err := Build(d, Options{}); err == nil {
		t.Fatal("invalid design accepted")
	}
}

func TestNewGridAppliesBlockages(t *testing.T) {
	d := smallDesign()
	d.Grid.Blockages = []signal.Blockage{{Layer: 0, Rect: geom.Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(5, 5)}}}
	g := NewGrid(d)
	if g.Cap(0, 1, 1) != 0 {
		t.Error("blockage not applied")
	}
	if g.Cap(0, 10, 10) != 6 {
		t.Error("default capacity wrong")
	}
}

func TestEmptyAssignment(t *testing.T) {
	p, _ := Build(smallDesign(), Options{})
	a := p.NewAssignment()
	if a.RoutedObjects() != 0 {
		t.Error("fresh assignment should route nothing")
	}
	if err := p.Legal(a); err != nil {
		t.Errorf("empty assignment illegal: %v", err)
	}
	want := p.Opt.M * float64(len(p.Objects))
	if got := p.ObjectiveValue(a); got != want {
		t.Errorf("objective = %v, want %v", got, want)
	}
}

func TestAssignmentUsageAndLegal(t *testing.T) {
	p, _ := Build(smallDesign(), Options{})
	a := p.NewAssignment()
	for i := range a.Choice {
		a.Choice[i] = 0
	}
	if err := p.Legal(a); err != nil {
		t.Fatalf("best candidates illegal on roomy grid: %v", err)
	}
	u := p.Usage(a)
	if u.TotalUse() == 0 {
		t.Fatal("usage empty")
	}
	// Removing usage restores zero.
	p.AddUsage(a, u, -1)
	if u.TotalUse() != 0 {
		t.Error("AddUsage(-1) did not cancel usage")
	}
}

func TestLegalDetectsOverflow(t *testing.T) {
	d := smallDesign()
	d.Grid.EdgeCap = 1 // 3-bit bus over capacity-1 edges must overflow
	p, _ := Build(d, Options{})
	a := p.NewAssignment()
	for i := range a.Choice {
		a.Choice[i] = 0
	}
	err := p.Legal(a)
	if err == nil {
		t.Fatal("overflow not detected")
	}
	if !strings.Contains(err.Error(), "overflow") {
		t.Errorf("err = %v", err)
	}
}

func TestLegalSizeMismatch(t *testing.T) {
	p, _ := Build(smallDesign(), Options{})
	if err := p.Legal(Assignment{Choice: []int{0}}); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestPairCostAcrossGroupsIsZero(t *testing.T) {
	p, _ := Build(smallDesign(), Options{})
	if got := p.PairCost(0, 0, 1, 0); got != 0 {
		t.Errorf("cross-group pair cost = %v, want 0", got)
	}
	if got := p.PairCost(0, 0, 0, 0); got != 0 {
		t.Errorf("self pair cost = %v, want 0", got)
	}
}

func TestPairCostWithinGroup(t *testing.T) {
	// One group, two styles: east two-pin bits and north two-pin bits.
	d := &signal.Design{
		Name: "mixed",
		Grid: signal.GridSpec{W: 24, H: 24, NumLayers: 4, EdgeCap: 6},
		Groups: []signal.Group{{
			Name: "g",
			Bits: []signal.Bit{
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 2)}, {Loc: geom.Pt(12, 2)}}},
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 3)}, {Loc: geom.Pt(12, 3)}}},
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 5)}, {Loc: geom.Pt(2, 15)}}},
			},
		}},
	}
	p, err := Build(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Objects) != 2 {
		t.Fatalf("objects = %d, want 2", len(p.Objects))
	}
	// A horizontal trunk and a vertical trunk share no RC: NoShare penalty.
	c := p.PairCost(0, 0, 1, 0)
	if c < p.Opt.NoShare {
		t.Errorf("pair cost = %v, want >= NoShare %v", c, p.Opt.NoShare)
	}
	if c >= p.Opt.M {
		t.Errorf("pair cost %v must stay below M %v", c, p.Opt.M)
	}
}

func TestPartnersNeighborBound(t *testing.T) {
	// Ten single-bit objects in one group with PairNeighbors 2.
	var g signal.Group
	for i := 0; i < 10; i++ {
		x0 := 2 + (i % 3)
		g.Bits = append(g.Bits, signal.Bit{
			Driver: 0,
			Pins:   []signal.Pin{{Loc: geom.Pt(x0, 2*i)}, {Loc: geom.Pt(x0+5+i, 2*i+1)}},
		})
	}
	d := &signal.Design{Name: "many", Grid: signal.GridSpec{W: 32, H: 32, NumLayers: 4, EdgeCap: 8}, Groups: []signal.Group{g}}
	p, err := Build(d, Options{PairNeighbors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Objects) < 5 {
		t.Skipf("expected many objects, got %d", len(p.Objects))
	}
	mid := len(p.Objects) / 2
	partners := p.Partners(mid)
	if len(partners) > 4 {
		t.Errorf("partners = %v, want <= 4 with neighbor bound 2", partners)
	}
}

func TestObjectiveValueCountsPairsOnce(t *testing.T) {
	d := &signal.Design{
		Name: "pair",
		Grid: signal.GridSpec{W: 24, H: 24, NumLayers: 4, EdgeCap: 6},
		Groups: []signal.Group{{
			Name: "g",
			Bits: []signal.Bit{
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 2)}, {Loc: geom.Pt(12, 2)}}},
				{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(2, 5)}, {Loc: geom.Pt(2, 15)}}},
			},
		}},
	}
	p, _ := Build(d, Options{})
	a := p.NewAssignment()
	a.Choice[0], a.Choice[1] = 0, 0
	want := p.Cost(0, 0) + p.Cost(1, 0) + p.PairCost(0, 0, 1, 0)
	if got := p.ObjectiveValue(a); got != want {
		t.Errorf("objective = %v, want %v", got, want)
	}
}
