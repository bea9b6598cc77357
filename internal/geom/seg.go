package geom

import (
	"fmt"
	"slices"
)

// Seg is an axis-aligned segment between two G-cell points — the paper's
// "rectilinear connection" (RC). A Seg is normalized when A.Less(B) or A==B;
// use Norm to canonicalize. A zero-length Seg (A==B) is permitted and counts
// as both horizontal and vertical.
type Seg struct {
	A, B Point
}

// S constructs a segment between two points. It panics if the points are
// not axis-aligned, because diagonal RCs never occur in rectilinear routing
// and indicate a logic error upstream.
func S(a, b Point) Seg {
	if a.X != b.X && a.Y != b.Y {
		panic(fmt.Sprintf("geom: diagonal segment %v-%v", a, b))
	}
	return Seg{A: a, B: b}
}

// Norm returns the segment with endpoints ordered so that A.Less(B) (or
// A==B). Normalized segments compare equal iff they cover the same RC.
func (s Seg) Norm() Seg {
	if s.B.Less(s.A) {
		return Seg{A: s.B, B: s.A}
	}
	return s
}

// Horizontal reports whether the segment runs along the X axis.
// Zero-length segments report true.
func (s Seg) Horizontal() bool { return s.A.Y == s.B.Y }

// Vertical reports whether the segment runs along the Y axis.
// Zero-length segments report true.
func (s Seg) Vertical() bool { return s.A.X == s.B.X }

// Len returns the segment length in G-cells.
func (s Seg) Len() int { return Dist(s.A, s.B) }

// String renders the segment as "(x,y)-(x,y)".
func (s Seg) String() string { return s.A.String() + "-" + s.B.String() }

// Contains reports whether point p lies on the segment (inclusive).
func (s Seg) Contains(p Point) bool {
	n := s.Norm()
	if n.Horizontal() {
		return p.Y == n.A.Y && p.X >= n.A.X && p.X <= n.B.X
	}
	return p.X == n.A.X && p.Y >= n.A.Y && p.Y <= n.B.Y
}

// Translate returns the segment shifted by d.
func (s Seg) Translate(d Point) Seg {
	return Seg{A: s.A.Add(d), B: s.B.Add(d)}
}

// Touches reports whether the two segments share at least one point:
// collinear overlap, endpoint contact, or a perpendicular crossing.
func (s Seg) Touches(o Seg) bool {
	s, o = s.Norm(), o.Norm()
	switch {
	case s.Horizontal() && o.Horizontal():
		return s.A.Y == o.A.Y && s.A.X <= o.B.X && o.A.X <= s.B.X
	case s.Vertical() && o.Vertical():
		return s.A.X == o.A.X && s.A.Y <= o.B.Y && o.A.Y <= s.B.Y
	case s.Horizontal(): // o vertical
		return o.A.X >= s.A.X && o.A.X <= s.B.X && s.A.Y >= o.A.Y && s.A.Y <= o.B.Y
	default: // s vertical, o horizontal
		return s.A.X >= o.A.X && s.A.X <= o.B.X && o.A.Y >= s.A.Y && o.A.Y <= s.B.Y
	}
}

// SplitAt cuts every segment at each point of pts lying in its interior,
// so those points become tree nodes. The pieces come normalized, in the
// order of segs and along each segment from its lesser endpoint;
// zero-length segments drop out.
func SplitAt(segs []Seg, pts []Point) []Seg {
	out, _ := appendSplit(nil, nil, segs, pts)
	return out
}

// SplitAt is SplitAt into arena-owned scratch. The result is valid until
// the arena's next kernel call or PutArena; callers needing to keep it
// must copy. segs may be the arena's Canon output.
func (a *Arena) SplitAt(segs []Seg, pts []Point) []Seg {
	a.split, a.pts = appendSplit(a.split[:0], a.pts, segs, pts)
	return a.split
}

// appendSplit appends the pieces of SplitAt(segs, pts) to dst, using cuts
// as scratch; it returns both for reuse.
func appendSplit(dst []Seg, cuts []Point, segs []Seg, pts []Point) ([]Seg, []Point) {
	for _, s := range segs {
		n := s.Norm()
		cuts = append(cuts[:0], n.A, n.B)
		for _, p := range pts {
			if interior(n, p) {
				cuts = append(cuts, p)
			}
		}
		slices.SortFunc(cuts, Point.Compare)
		for i := 0; i+1 < len(cuts); i++ {
			if cuts[i] != cuts[i+1] {
				dst = append(dst, Seg{A: cuts[i], B: cuts[i+1]})
			}
		}
	}
	return dst, cuts
}

// LShape returns the one- or two-segment rectilinear connection between a
// and b that bends at the corner point (b.X, a.Y) ("lower-L" when a is the
// horizontal-first endpoint). Zero-length legs are omitted.
func LShape(a, b Point) []Seg {
	corner := Point{b.X, a.Y}
	var out []Seg
	if a != corner {
		out = append(out, Seg{A: a, B: corner})
	}
	if corner != b {
		out = append(out, Seg{A: corner, B: b})
	}
	return out
}
