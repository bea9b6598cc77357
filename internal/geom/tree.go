package geom

import (
	"encoding/binary"
	"sort"
	"strings"
)

// Tree is a rectilinear routing tree: a set of axis-aligned segments (RCs).
// Trees are value types; Canon returns a canonical form with merged
// collinear runs and splits at every junction.
type Tree struct {
	Segs []Seg
}

// NewTree builds a tree from the given segments, dropping zero-length ones.
func NewTree(segs ...Seg) Tree {
	t := Tree{Segs: make([]Seg, 0, len(segs))}
	for _, s := range segs {
		if s.Len() > 0 {
			t.Segs = append(t.Segs, s.Norm())
		}
	}
	return t
}

// Append adds segments to the tree, dropping zero-length ones.
func (t *Tree) Append(segs ...Seg) {
	for _, s := range segs {
		if s.Len() > 0 {
			t.Segs = append(t.Segs, s.Norm())
		}
	}
}

// Translate returns the tree shifted by d.
func (t Tree) Translate(d Point) Tree {
	out := Tree{Segs: make([]Seg, len(t.Segs))}
	for i, s := range t.Segs {
		out.Segs[i] = s.Translate(d)
	}
	return out
}

// WireLength returns the total length of the union of the tree's segments.
// Overlapping collinear segments are counted once.
func (t Tree) WireLength() int {
	a := GetArena()
	total := a.WireLength(t.Segs)
	PutArena(a)
	return total
}

// String renders the tree's canonical segments, sorted, for debugging.
func (t Tree) String() string {
	c := t.Canon()
	parts := make([]string, len(c.Segs))
	for i, s := range c.Segs {
		parts[i] = s.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, " ") + "}"
}

// Key packs the tree's canonical segments into a string: two trees have
// equal keys exactly when their canonical forms, and so their String
// renderings, are equal. It identifies a tree for deduplication without
// formatting it.
func (t Tree) Key() string {
	a := GetArena()
	cs := a.Canon(t.Segs)
	var sb strings.Builder
	sb.Grow(8 * len(cs))
	var buf [binary.MaxVarintLen64]byte
	for _, s := range cs {
		for _, v := range [4]int{s.A.X, s.A.Y, s.B.X, s.B.Y} {
			sb.Write(buf[:binary.PutVarint(buf[:], int64(v))])
		}
	}
	PutArena(a)
	return sb.String()
}

// Canon returns the canonical form of the tree: collinear overlaps merged,
// then every run split at each endpoint or crossing that touches it. In the
// canonical form two segments share at most a single endpoint. The segments
// come back in canonical order: horizontal runs first, then by fixed
// coordinate ascending, cuts ascending.
func (t Tree) Canon() Tree {
	a := GetArena()
	cs := a.Canon(t.Segs)
	out := Tree{}
	if len(cs) > 0 {
		out.Segs = make([]Seg, len(cs))
		copy(out.Segs, cs)
	}
	PutArena(a)
	return out
}

// Bends returns the number of bending points: canonical nodes of degree 2
// whose incident segments are perpendicular.
func (t Tree) Bends() int {
	a := GetArena()
	bends := a.Bends(t.Segs)
	PutArena(a)
	return bends
}

// OnTree reports whether p lies on any segment of the tree.
func (t Tree) OnTree(p Point) bool {
	for _, s := range t.Segs {
		if s.Contains(p) {
			return true
		}
	}
	return false
}

// Connected reports whether the tree is a single connected component that
// touches every one of the given pins. A tree without wire is connected iff
// all pins coincide.
func (t Tree) Connected(pins []Point) bool {
	a := GetArena()
	ok := a.connected(t.Segs, pins)
	PutArena(a)
	return ok
}

// PathLengths returns the length of the path along the tree from from to
// each point of to, or -1 where either point is off-tree or the tree does
// not connect them; a point is at distance 0 from itself when it is on the
// tree or the tree is empty. Used for source-to-sink distance accounting.
func (t Tree) PathLengths(from Point, to []Point) []int {
	a := GetArena()
	out := a.pathLengths(t.Segs, from, to)
	PutArena(a)
	return out
}
