// Package geom provides integer rectilinear geometry primitives used by the
// Streak signal-group router: points on the G-cell grid, axis-aligned
// segments (the paper's "rectilinear connections"), rectilinear trees, and
// Hanan-grid helpers.
//
// All coordinates are integer G-cell indices. Distances are Manhattan.
package geom

import (
	"cmp"
	"fmt"
)

// Point is a location on the 2-D G-cell grid.
type Point struct {
	X, Y int
}

// Pt is a convenience constructor for Point.
func Pt(x, y int) Point { return Point{X: x, Y: y} }

// String renders the point as "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Add returns p translated by d.
func (p Point) Add(d Point) Point { return Point{p.X + d.X, p.Y + d.Y} }

// Sub returns the component-wise difference p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Less orders points lexicographically by (X, Y). It gives a deterministic
// total order for canonicalizing pin lists and tree segments.
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// Compare orders points like Less, returning -1, 0 or +1; it is the
// comparison to sort or search point slices with.
func (p Point) Compare(q Point) int {
	if c := cmp.Compare(p.X, q.X); c != 0 {
		return c
	}
	return cmp.Compare(p.Y, q.Y)
}

// Dist returns the Manhattan distance between p and q.
func Dist(p, q Point) int {
	return abs(p.X-q.X) + abs(p.Y-q.Y)
}

// BBox returns the bounding rectangle of the given points. It panics if
// pts is empty, because an empty bounding box has no meaningful value.
func BBox(pts []Point) Rect {
	if len(pts) == 0 {
		panic("geom: BBox of empty point set")
	}
	r := Rect{Lo: pts[0], Hi: pts[0]}
	for _, p := range pts[1:] {
		if p.X < r.Lo.X {
			r.Lo.X = p.X
		}
		if p.Y < r.Lo.Y {
			r.Lo.Y = p.Y
		}
		if p.X > r.Hi.X {
			r.Hi.X = p.X
		}
		if p.Y > r.Hi.Y {
			r.Hi.Y = p.Y
		}
	}
	return r
}

// Rect is an axis-aligned rectangle with inclusive corners Lo and Hi.
type Rect struct {
	Lo, Hi Point
}

// Contains reports whether p lies inside r (inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Lo.X && p.X <= r.Hi.X && p.Y >= r.Lo.Y && p.Y <= r.Hi.Y
}

// W returns the rectangle width in G-cells (Hi.X - Lo.X).
func (r Rect) W() int { return r.Hi.X - r.Lo.X }

// H returns the rectangle height in G-cells (Hi.Y - Lo.Y).
func (r Rect) H() int { return r.Hi.Y - r.Lo.Y }

// Center returns the integer center of the rectangle (rounded down).
func (r Rect) Center() Point {
	return Point{(r.Lo.X + r.Hi.X) / 2, (r.Lo.Y + r.Hi.Y) / 2}
}

// HalfPerimeter returns the half-perimeter wirelength (HPWL) of the
// rectangle, the classic lower bound for connecting its corner points.
func (r Rect) HalfPerimeter() int { return r.W() + r.H() }

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
