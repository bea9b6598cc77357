package audit

import (
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
	"repro/internal/signal"
)

// testDesign is an 8x8 grid with 4 alternating layers (0:H 1:V 2:H 3:V),
// capacity 2, and one group of two straight horizontal bits.
func testDesign() *signal.Design {
	return &signal.Design{
		Name: "audit-test",
		Grid: signal.GridSpec{W: 8, H: 8, NumLayers: 4, EdgeCap: 2},
		Groups: []signal.Group{{
			Name: "g0",
			Bits: []signal.Bit{
				{Name: "b0", Pins: []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(3, 0)}}},
				{Name: "b1", Pins: []signal.Pin{{Loc: geom.Pt(0, 1)}, {Loc: geom.Pt(3, 1)}}},
			},
		}},
	}
}

// routedPair returns the design, its grid, and a legal hand-made routing.
func routedPair() (*signal.Design, *grid.Grid, *route.Routing) {
	d := testDesign()
	g := route.NewGrid(d)
	r := &route.Routing{
		Bits: [][]route.BitRoute{{
			{Routed: true, Tree: geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(3, 0))), HLayer: 0, VLayer: 1},
			{Routed: true, Tree: geom.NewTree(geom.S(geom.Pt(0, 1), geom.Pt(3, 1))), HLayer: 0, VLayer: 1},
		}},
		Objects: [][]route.SolutionObject{nil},
	}
	return d, g, r
}

func TestCheckLegalRouting(t *testing.T) {
	d, g, r := routedPair()
	rep := Check(d, g, r)
	if !rep.OK() {
		t.Fatalf("legal routing flagged: %s", rep.Summary())
	}
	if rep.BitsAudited != 2 {
		t.Errorf("BitsAudited = %d, want 2", rep.BitsAudited)
	}
	if rep.EdgesAudited == 0 {
		t.Error("no edges audited")
	}
	if err := rep.Err(); err != nil {
		t.Errorf("Err() = %v on clean report", err)
	}
}

func TestCheckOverCapacity(t *testing.T) {
	d, g, r := routedPair()
	// Move b1's pins and tree onto row 0 so both (still connected) bits
	// share row 0's edges, then squeeze one edge's capacity below 2.
	d.Groups[0].Bits[1].Pins = []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(3, 0)}}
	r.Bits[0][1].Tree = geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(3, 0)))
	g.SetCap(0, 1, 0, 1)
	rep := Check(d, g, r)
	if n := rep.Count(OverCapacity); n != 1 {
		t.Fatalf("OverCapacity count = %d, want 1 (%s)", n, rep.Summary())
	}
	if rep.Violations[0].Layer != 0 {
		t.Errorf("violation layer = %d, want 0", rep.Violations[0].Layer)
	}
	if err := rep.Err(); err == nil || !strings.Contains(err.Error(), "over-capacity") {
		t.Errorf("Err() = %v, want over-capacity", err)
	}
}

func TestCheckDisconnected(t *testing.T) {
	d, g, r := routedPair()
	// b0's tree stops one cell short of its sink at (3,0).
	r.Bits[0][0].Tree = geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(2, 0)))
	rep := Check(d, g, r)
	if n := rep.Count(Disconnected); n != 1 {
		t.Fatalf("Disconnected count = %d, want 1 (%s)", n, rep.Summary())
	}
	v := rep.Violations[0]
	if v.Group != 0 || v.Bit != 0 {
		t.Errorf("violation at group %d bit %d, want 0/0", v.Group, v.Bit)
	}
}

func TestCheckBadLayers(t *testing.T) {
	d, g, r := routedPair()
	r.Bits[0][0].HLayer = 1  // vertical layer for horizontal trunks
	r.Bits[0][1].VLayer = 99 // outside the stack
	rep := Check(d, g, r)
	if n := rep.Count(BadLayer); n != 2 {
		t.Fatalf("BadLayer count = %d, want 2 (%s)", n, rep.Summary())
	}
	// Corrupt bits must not contribute usage: no capacity violations.
	if n := rep.Count(OverCapacity); n != 0 {
		t.Errorf("OverCapacity count = %d, want 0", n)
	}
}

func TestCheckOffGridAndDiagonalNeverPanic(t *testing.T) {
	d, g, r := routedPair()
	r.Bits[0][0].Tree = geom.NewTree(geom.S(geom.Pt(0, 0), geom.Pt(30, 0)))
	// geom.S rejects diagonals at construction, but hostile or corrupted
	// routings can still carry one via the struct literal.
	r.Bits[0][1].Tree = geom.Tree{Segs: []geom.Seg{{A: geom.Pt(0, 1), B: geom.Pt(3, 4)}}}
	// A coordinate beyond the geometry kernels' packed range must be
	// reported, not handed to them.
	d.Groups[0].Bits = append(d.Groups[0].Bits, signal.Bit{Name: "b2",
		Pins: []signal.Pin{{Loc: geom.Pt(0, 2)}, {Loc: geom.Pt(3, 2)}}})
	r.Bits[0] = append(r.Bits[0], route.BitRoute{Routed: true, HLayer: 0, VLayer: 1,
		Tree: geom.Tree{Segs: []geom.Seg{{A: geom.Pt(0, 2), B: geom.Pt(1<<31, 2)}}}})
	rep := Check(d, g, r)
	if n := rep.Count(OffGrid); n != 3 {
		t.Fatalf("OffGrid count = %d, want 3 (%s)", n, rep.Summary())
	}
	// An off-grid bit gets no connectivity check.
	if n := rep.Count(Disconnected); n != 0 {
		t.Fatalf("Disconnected count = %d, want 0 (%s)", n, rep.Summary())
	}
	// No corrupt bit may contribute usage.
	if n := rep.Count(OverCapacity); n != 0 {
		t.Errorf("OverCapacity count = %d, want 0", n)
	}
}

// TestCheckFlagsDiagonalWire pins that the raw segments are audited: the
// diagonal (0,0)-(5,3) normalizes onto the vertical run x=0, y in [0,3],
// which the bit's legal (0,0)-(0,4) wire covers, so a check of the
// canonical segments alone would pass the bit.
func TestCheckFlagsDiagonalWire(t *testing.T) {
	d, g, r := routedPair()
	d.Groups[0].Bits[0].Pins = []signal.Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(0, 4)}}
	r.Bits[0][0].Tree = geom.Tree{Segs: []geom.Seg{
		geom.S(geom.Pt(0, 0), geom.Pt(0, 4)),
		{A: geom.Pt(0, 0), B: geom.Pt(5, 3)},
	}}
	rep := Check(d, g, r)
	if n := rep.Count(OffGrid); n != 1 || len(rep.Violations) != 1 {
		t.Fatalf("want exactly one OffGrid violation, got %s", rep.Summary())
	}
	if v := rep.Violations[0]; v.Group != 0 || v.Bit != 0 || !strings.Contains(v.Detail, "rectilinear") {
		t.Errorf("violation = %v, want group 0 bit 0 not rectilinear", v)
	}
}

func TestCheckMalformedShapes(t *testing.T) {
	d, g, _ := routedPair()
	if rep := Check(d, g, nil); rep.Count(Malformed) != 1 {
		t.Error("nil routing not flagged")
	}
	if rep := Check(d, g, &route.Routing{}); rep.Count(Malformed) != 1 {
		t.Error("group-less routing not flagged")
	}
	short := &route.Routing{Bits: [][]route.BitRoute{{{}}}}
	if rep := Check(d, g, short); rep.Count(Malformed) != 1 {
		t.Error("short bit slice not flagged")
	}
}
