package signal

import (
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

func TestDirOf(t *testing.T) {
	p := geom.Pt(0, 0)
	cases := []struct {
		q    geom.Point
		want int
	}{
		{geom.Pt(5, 0), DirPosX},
		{geom.Pt(5, 5), DirQ1},
		{geom.Pt(0, 5), DirPosY},
		{geom.Pt(-5, 5), DirQ2},
		{geom.Pt(-5, 0), DirNegX},
		{geom.Pt(-5, -5), DirQ3},
		{geom.Pt(0, -5), DirNegY},
		{geom.Pt(5, -5), DirQ4},
		{geom.Pt(0, 0), -1},
	}
	for _, c := range cases {
		if got := DirOf(p, c.q); got != c.want {
			t.Errorf("DirOf(%v,%v) = %d, want %d", p, c.q, got, c.want)
		}
	}
}

func TestDirOfOppositeDirections(t *testing.T) {
	// Swapping p and q lands in the opposite bucket (rotated by 4).
	f := func(px, py, qx, qy int8) bool {
		p, q := geom.Pt(int(px), int(py)), geom.Pt(int(qx), int(qy))
		d1, d2 := DirOf(p, q), DirOf(q, p)
		if d1 == -1 {
			return d2 == -1
		}
		return d2 == (d1+4)%NumDirs
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// paperFig5aBit reproduces the Fig. 5(a) example: driver in the middle with
// one sink in each of the 8 directions.
func paperFig5aBit() Bit {
	return Bit{
		Name:   "fig5a",
		Driver: 0,
		Pins: []Pin{
			{Loc: geom.Pt(0, 0)},
			{Loc: geom.Pt(3, 0)},   // +x
			{Loc: geom.Pt(3, 3)},   // I
			{Loc: geom.Pt(0, 3)},   // +y
			{Loc: geom.Pt(-3, 3)},  // II
			{Loc: geom.Pt(-3, 0)},  // -x
			{Loc: geom.Pt(-3, -3)}, // III
			{Loc: geom.Pt(0, -3)},  // -y
			{Loc: geom.Pt(3, -3)},  // IV
		},
	}
}

func TestPinSVPaperExample(t *testing.T) {
	b := paperFig5aBit()
	got := b.DriverSV()
	want := SV{1, 1, 1, 1, 1, 1, 1, 1}
	if got != want {
		t.Errorf("driver SV = %v, want %v", got, want)
	}
	if got.String() != "{1,1,1,1,1,1,1,1}" {
		t.Errorf("String = %s", got.String())
	}
}

func TestPinSVTwoPinStyles(t *testing.T) {
	// Fig. 3(a) top routing style: driver with a sink to its +x side.
	b := Bit{Driver: 0, Pins: []Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(4, 0)}}}
	if got := b.PinSV(0); got != (SV{1, 0, 0, 0, 0, 0, 0, 0}) {
		t.Errorf("driver SV = %v", got)
	}
	if got := b.PinSV(1); got != (SV{0, 0, 0, 0, 1, 0, 0, 0}) {
		t.Errorf("sink SV = %v", got)
	}
}

func TestSVTranslationInvariant(t *testing.T) {
	f := func(dx, dy int8) bool {
		b := paperFig5aBit()
		moved := Bit{Driver: b.Driver, Pins: make([]Pin, len(b.Pins))}
		d := geom.Pt(int(dx), int(dy))
		for i, p := range b.Pins {
			moved.Pins[i] = Pin{Loc: p.Loc.Add(d)}
		}
		for i := range b.Pins {
			if b.PinSV(i) != moved.PinSV(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSVScaleInvariant(t *testing.T) {
	// SV depends on direction only, not distance.
	b := paperFig5aBit()
	scaled := Bit{Driver: 0, Pins: make([]Pin, len(b.Pins))}
	for i, p := range b.Pins {
		scaled.Pins[i] = Pin{Loc: geom.Pt(p.Loc.X*7, p.Loc.Y*7)}
	}
	for i := range b.Pins {
		if b.PinSV(i) != scaled.PinSV(i) {
			t.Fatalf("pin %d SV changed under scaling", i)
		}
	}
}

// TestWeightedPinSV checks the driver-weighted SV of a pin, which is
// WeightedPointSV at the pin's location.
func TestWeightedPinSV(t *testing.T) {
	b := Bit{Driver: 0, Pins: []Pin{
		{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(2, 2)}, {Loc: geom.Pt(4, 4)},
	}}
	w := DriverWeightFor(&b)
	if w != 4 {
		t.Fatalf("DriverWeightFor = %d, want 4", w)
	}
	// From sink 1: driver in Q3 with weight, sink 2 in Q1.
	got := WeightedPointSV(b.Pins[1].Loc, &b, w)
	want := SV{0, 1, 0, 0, 0, 4, 0, 0}
	if got != want {
		t.Errorf("weighted SV = %v, want %v", got, want)
	}
	// Unweighted equals PinSV with weight 1.
	if WeightedPointSV(b.Pins[1].Loc, &b, 1) != b.PinSV(1) {
		t.Error("weight 1 should equal PinSV")
	}
}

func TestWeightedPointSV(t *testing.T) {
	b := Bit{Driver: 0, Pins: []Pin{{Loc: geom.Pt(0, 0)}, {Loc: geom.Pt(4, 0)}}}
	got := WeightedPointSV(geom.Pt(2, 0), &b, 5)
	want := SV{1, 0, 0, 0, 5, 0, 0, 0} // sink at +x, driver at -x weighted
	if got != want {
		t.Errorf("point SV = %v, want %v", got, want)
	}
	// A point coincident with a pin skips that pin.
	got = WeightedPointSV(geom.Pt(0, 0), &b, 5)
	want = SV{1, 0, 0, 0, 0, 0, 0, 0}
	if got != want {
		t.Errorf("coincident point SV = %v, want %v", got, want)
	}
}

func TestSVL1(t *testing.T) {
	a := SV{1, 0, 2, 0, 0, 0, 0, 0}
	b := SV{0, 1, 2, 0, 0, 0, 0, 3}
	if got := a.L1(b); got != 5 {
		t.Errorf("L1 = %d, want 5", got)
	}
	if a.L1(a) != 0 {
		t.Error("L1 with self should be 0")
	}
	f := func(v1, v2 [NumDirs]uint8) bool {
		var a, b SV
		for i := range a {
			a[i], b[i] = int(v1[i]), int(v2[i])
		}
		return a.L1(b) == b.L1(a) && a.L1(b) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
