package metrics

import (
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/benchgen"
	"repro/internal/geom"
	"repro/internal/pd"
	"repro/internal/postopt"
	"repro/internal/route"
	"repro/internal/signal"
)

func testDesign() *signal.Design {
	return benchgen.Scale(benchgen.Industry(1), 0.04).Generate()
}

func TestComputeOnPrimalDual(t *testing.T) {
	d := testDesign()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res := pd.Solve(p)
	r := p.ExtractRouting(res.Assignment)
	u := r.UsageOf(p.Grid)
	m := Compute(d, r, u, postopt.Options{})
	if m.Groups != len(d.Groups) || m.Nets != d.NumNets() {
		t.Error("design stats wrong")
	}
	if m.RouteFrac < 0 || m.RouteFrac > 1 {
		t.Errorf("RouteFrac = %v", m.RouteFrac)
	}
	if m.WL <= 0 {
		t.Errorf("WL = %v", m.WL)
	}
	if m.AvgReg < 0 || m.AvgReg > 1 {
		t.Errorf("AvgReg = %v", m.AvgReg)
	}
	if m.Overflow != 0 {
		t.Errorf("Streak routing must not overflow, got %d", m.Overflow)
	}
}

func TestWLIncludesUnroutedEstimate(t *testing.T) {
	d := testDesign()
	p, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Unrouted everywhere: WL must still be positive (RSMT estimates).
	r := p.NewRouting()
	m := Compute(d, r, nil, postopt.Options{})
	if m.WL <= 0 {
		t.Fatalf("unrouted WL estimate = %v", m.WL)
	}
	if m.RoutedGroups != 0 || m.RouteFrac != 0 {
		t.Error("nothing is routed")
	}
	// Pitch scaling: same design with pitch 10 doubles the pitch-5 WL.
	d2 := testDesign()
	d2.Grid.Pitch = 10
	m2 := Compute(d2, p.NewRouting(), nil, postopt.Options{})
	if math.Abs(m2.WL-2*m.WL) > 1e-9 {
		t.Errorf("pitch scaling wrong: %v vs %v", m2.WL, m.WL)
	}
}

func TestManualBaselineBeatsOnWLButOverflows(t *testing.T) {
	// The relationships behind Table I: manual routes 100 % with minimal
	// WL; Streak (PD) routes slightly fewer groups, never overflows.
	d := benchgen.Scale(benchgen.Industry(3), 0.06).Generate()
	pm, err := route.Build(d, route.Options{})
	if err != nil {
		t.Fatal(err)
	}
	man := baseline.Route(pm)
	mManual := Compute(d, man.Routing, man.Usage, postopt.Options{})

	pp, _ := route.Build(d, route.Options{})
	res := pd.Solve(pp)
	r := pp.ExtractRouting(res.Assignment)
	u := r.UsageOf(pp.Grid)
	mPD := Compute(d, r, u, postopt.Options{})

	if mManual.RouteFrac != 1 {
		t.Errorf("manual route frac = %v, want 1", mManual.RouteFrac)
	}
	if mPD.Overflow != 0 {
		t.Errorf("PD overflow = %d, want 0", mPD.Overflow)
	}
	if mPD.WL < mManual.WL*0.95 {
		t.Errorf("PD WL %v unexpectedly far below manual %v", mPD.WL, mManual.WL)
	}
}

func TestWLHugeGridNoOverflow(t *testing.T) {
	// Regression: WL used to be computed as float64(wl * pitch), where the
	// int multiply overflows before the conversion. A single routed segment
	// of 4e6 cells (inside the design's grid bound) at pitch 4e12 puts the
	// product at 1.6e19 > MaxInt64, so the pre-fix code reported a negative
	// wirelength.
	const span, pitch = 4_000_000, 4_000_000_000_000
	d := &signal.Design{
		Name: "huge",
		Grid: signal.GridSpec{W: span + 1, H: 2, NumLayers: 2, EdgeCap: 1, Pitch: pitch},
		Groups: []signal.Group{{Bits: []signal.Bit{
			{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(span, 0)}}},
		}}},
	}
	r := &route.Routing{
		Bits: [][]route.BitRoute{{{
			Routed: true,
			Tree:   geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(span, 0))),
		}}},
		Objects: make([][]route.SolutionObject, 1),
	}
	m := Compute(d, r, nil, postopt.Options{})
	want := float64(span) * float64(pitch) // 1.6e19
	if m.WL != want {
		t.Fatalf("WL = %v, want %v (int overflow in wl*pitch?)", m.WL, want)
	}
	if m.WL < 0 {
		t.Fatal("WL went negative: wl*pitch overflowed")
	}
}

func TestGroupReg(t *testing.T) {
	// Two parallel straight objects: Reg = 1. Perpendicular: Reg = 0.
	g := &signal.Group{Bits: []signal.Bit{
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(8, 0)}}},
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 2)}, {Loc: geom.Pt(8, 2)}}},
		{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(0, 4)}, {Loc: geom.Pt(0, 12)}}},
	}}
	parallel := []route.SolutionObject{
		{RepTree: geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(8, 0))), RepBit: 0, BitIdx: []int{0}},
		{RepTree: geom.NewTree(geom.S(geom.Pt(0, 2), geom.Pt(8, 2))), RepBit: 1, BitIdx: []int{1}},
	}
	if v, ok := GroupReg(g, parallel); !ok || v != 1 {
		t.Errorf("parallel GroupReg = %v,%v", v, ok)
	}
	mixed := append(parallel, route.SolutionObject{
		RepTree: geom.NewTree(geom.S(geom.Pt(0, 4), geom.Pt(0, 12))), RepBit: 2, BitIdx: []int{2}})
	v, ok := GroupReg(g, mixed)
	if !ok {
		t.Fatal("GroupReg not ok")
	}
	want := 1.0 / 3.0 // pairs: (0,1)=1, (0,2)=0, (1,2)=0
	if math.Abs(v-want) > 1e-9 {
		t.Errorf("mixed GroupReg = %v, want %v", v, want)
	}
	if _, ok := GroupReg(g, parallel[:1]); ok {
		t.Error("single object group must be excluded (N_o > 1)")
	}
}

func TestAvgRegAllSingleObjects(t *testing.T) {
	d := &signal.Design{
		Name: "single",
		Grid: signal.GridSpec{W: 16, H: 16, NumLayers: 2, EdgeCap: 4},
		Groups: []signal.Group{{Bits: []signal.Bit{
			{Driver: 0, Pins: []signal.Pin{{Loc: geom.Pt(1, 1)}, {Loc: geom.Pt(9, 1)}}},
		}}},
	}
	p, _ := route.Build(d, route.Options{})
	res := pd.Solve(p)
	r := p.ExtractRouting(res.Assignment)
	if got := AvgReg(d, r); got != 1 {
		t.Errorf("AvgReg with no multi-object groups = %v, want 1", got)
	}
}
