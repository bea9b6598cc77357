package geom

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSegBasics(t *testing.T) {
	s := S(Pt(3, 2), Pt(0, 2))
	if !s.Horizontal() || s.Vertical() {
		t.Error("expected horizontal segment")
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d", s.Len())
	}
	n := s.Norm()
	if n.A != Pt(0, 2) || n.B != Pt(3, 2) {
		t.Errorf("Norm = %v", n)
	}
	v := S(Pt(1, 1), Pt(1, 5))
	if !v.Vertical() || v.Horizontal() {
		t.Error("expected vertical segment")
	}
	zero := S(Pt(2, 2), Pt(2, 2))
	if !zero.Horizontal() || !zero.Vertical() || zero.Len() != 0 {
		t.Error("zero-length segment should be both orientations with Len 0")
	}
}

func TestSegDiagonalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("diagonal S() did not panic")
		}
	}()
	S(Pt(0, 0), Pt(1, 1))
}

func TestSegContains(t *testing.T) {
	s := S(Pt(0, 3), Pt(5, 3))
	for x := 0; x <= 5; x++ {
		if !s.Contains(Pt(x, 3)) {
			t.Errorf("should contain (%d,3)", x)
		}
	}
	if s.Contains(Pt(6, 3)) || s.Contains(Pt(-1, 3)) || s.Contains(Pt(2, 4)) {
		t.Error("contains point off segment")
	}
}

func TestSplitAt(t *testing.T) {
	h := S(Pt(0, 2), Pt(4, 2))
	cases := []struct {
		name string
		segs []Seg
		pts  []Point
		want []Seg
	}{
		{"interior cut", []Seg{h}, []Point{Pt(1, 2)},
			[]Seg{S(Pt(0, 2), Pt(1, 2)), S(Pt(1, 2), Pt(4, 2))}},
		{"pin at endpoint is not cut", []Seg{h}, []Point{Pt(0, 2), Pt(4, 2)},
			[]Seg{h}},
		{"duplicate points", []Seg{h}, []Point{Pt(3, 2), Pt(1, 2), Pt(3, 2)},
			[]Seg{S(Pt(0, 2), Pt(1, 2)), S(Pt(1, 2), Pt(3, 2)), S(Pt(3, 2), Pt(4, 2))}},
		{"reversed segment", []Seg{S(Pt(1, 5), Pt(1, 0))}, []Point{Pt(1, 3)},
			[]Seg{S(Pt(1, 0), Pt(1, 3)), S(Pt(1, 3), Pt(1, 5))}},
		{"point off the segment", []Seg{h}, []Point{Pt(2, 3), Pt(5, 2)},
			[]Seg{h}},
		{"zero-length segment drops out", []Seg{S(Pt(1, 1), Pt(1, 1)), h}, []Point{Pt(1, 1)},
			[]Seg{h}},
	}
	a := new(Arena)
	for _, c := range cases {
		if got := SplitAt(c.segs, c.pts); !slices.Equal(got, c.want) {
			t.Errorf("%s: SplitAt = %v, want %v", c.name, got, c.want)
		}
		if got := a.SplitAt(c.segs, c.pts); !slices.Equal(got, c.want) {
			t.Errorf("%s: Arena.SplitAt = %v, want %v", c.name, got, c.want)
		}
	}
	if n := testing.AllocsPerRun(50, func() { a.SplitAt(cases[2].segs, cases[2].pts) }); n != 0 {
		t.Errorf("Arena.SplitAt allocates %v times per call on a warm arena, want 0", n)
	}
}

func TestLShape(t *testing.T) {
	segs := LShape(Pt(0, 0), Pt(3, 4))
	if len(segs) != 2 {
		t.Fatalf("want 2 segments, got %d", len(segs))
	}
	tr := NewTree(segs...)
	if tr.WireLength() != 7 {
		t.Errorf("L-shape wirelength = %d, want 7", tr.WireLength())
	}
	if !tr.Connected([]Point{Pt(0, 0), Pt(3, 4)}) {
		t.Error("L-shape not connected")
	}
	// Degenerate: collinear points produce a single segment.
	if got := LShape(Pt(0, 0), Pt(5, 0)); len(got) != 1 {
		t.Errorf("collinear L-shape = %v", got)
	}
	if got := LShape(Pt(2, 2), Pt(2, 2)); len(got) != 0 {
		t.Errorf("zero L-shape = %v", got)
	}
}

func TestLShapeProperty(t *testing.T) {
	// Any L-shape has wirelength exactly the Manhattan distance.
	f := func(ax, ay, bx, by int8) bool {
		a, b := Pt(int(ax), int(ay)), Pt(int(bx), int(by))
		tr := NewTree(LShape(a, b)...)
		return tr.WireLength() == Dist(a, b) && tr.Connected([]Point{a, b})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
