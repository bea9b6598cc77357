package geom

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// This file holds the allocation-free SoA kernels behind Canon, WireLength
// and Bends. The map-and-nested-slice implementations they replace dominated
// the candidate-build and selection hot paths; the kernels below reduce each
// of them to packed-key sorts plus linear merges over scratch slices owned
// by a pooled Arena, so steady-state callers allocate nothing. Outputs are
// byte-identical to the legacy implementations (pinned by the fuzz and
// golden suites): merged lines order horizontal-first, then fixed ascending,
// then span start ascending, and canonical segments split at ascending
// deduplicated cuts.

// coordBias shifts signed G-cell coordinates into the 31-bit unsigned range
// used by the packed sort keys. Coordinates must stay within
// [-2^30, 2^30); packRun panics otherwise rather than silently mis-sorting.
// signal.Design.Validate bounds the grid far inside that range, so only a
// caller bug can reach the panic.
const coordBias = 1 << 30

const coordMask = 1<<31 - 1

// lineRec is one collinear run in packed SoA form: key orders runs
// (direction, fixed coordinate, span start) so a single flat sort reproduces
// the legacy per-group ordering; hi is the span end on the moving axis.
type lineRec struct {
	key uint64
	hi  int32
}

// packRun packs one collinear run; its key orders horizontal runs first,
// then fixed ascending, then lo ascending — the canonical line order. It
// panics when fixed, lo or hi leaves the packed range.
func packRun(vertical bool, fixed, lo, hi int) lineRec {
	bf, bl, bh := uint64(int64(fixed)+coordBias), uint64(int64(lo)+coordBias), uint64(int64(hi)+coordBias)
	if bf > coordMask || bl > coordMask || bh > coordMask {
		panic(fmt.Sprintf("geom: coordinate out of packed range: fixed=%d lo=%d hi=%d", fixed, lo, hi))
	}
	k := bf<<31 | bl
	if vertical {
		k |= 1 << 62
	}
	return lineRec{k, int32(hi)}
}

func (r lineRec) vertical() bool { return r.key>>62 != 0 }
func (r lineRec) fixed() int     { return int(r.key>>31&coordMask) - coordBias }
func (r lineRec) lo() int        { return int(r.key&coordMask) - coordBias }

// dirFixedMask selects the (direction, fixed) part of a key — two runs merge
// only when these bits match.
const dirFixedMask = 1<<62 | uint64(coordMask)<<31

// packPt packs a point for sorted set intersection.
func packPt(x, y int) uint64 {
	return uint64(int64(x)+coordBias)<<31 | uint64(int64(y)+coordBias)
}

// Arena is reusable scratch for the geometry kernels. The zero value is
// ready to use; Get/PutArena pool arenas so steady-state solve paths reuse
// grown scratch instead of reallocating it. An Arena is not safe for
// concurrent use; pool one per goroutine.
type Arena struct {
	recs  []lineRec
	cuts  []int32
	hpts  []uint64
	vpts  []uint64
	canon []Seg

	// SplitAt scratch, and the tree view's (view.go).
	split []Seg
	pts   []Point
	query []Point
	eps   []endpoint
	nodes []Point
	ends  []int32
	off   []int32
	adj   []int32
	work  []int32
	dist  []int
	inq   []bool
}

var arenaPool = sync.Pool{New: func() any {
	arenaFresh.Add(1)
	return new(Arena)
}}

var (
	arenaGets  atomic.Int64
	arenaFresh atomic.Int64
)

// GetArena returns a pooled arena (allocating a fresh one only when the pool
// is empty). Pair with PutArena.
func GetArena() *Arena {
	arenaGets.Add(1)
	return arenaPool.Get().(*Arena)
}

// PutArena returns the arena to the pool for reuse.
func PutArena(a *Arena) { arenaPool.Put(a) }

// ArenaCounters reports cumulative GetArena calls and how many of them had
// to allocate a fresh arena; solvers snapshot the pair around a stage to
// surface pooled-vs-fresh acquisition counts in telemetry.
func ArenaCounters() (gets, fresh int64) {
	return arenaGets.Load(), arenaFresh.Load()
}

// merge fills a.recs with the maximal disjoint collinear runs of segs, in
// canonical order (horizontal first, fixed ascending, lo ascending), and
// returns the merged prefix.
func (a *Arena) merge(segs []Seg) []lineRec {
	recs := a.recs[:0]
	for _, s := range segs {
		if s.A == s.B {
			continue
		}
		n := s.Norm()
		if n.Horizontal() {
			recs = append(recs, packRun(false, n.A.Y, n.A.X, n.B.X))
		} else {
			recs = append(recs, packRun(true, n.A.X, n.A.Y, n.B.Y))
		}
	}
	a.recs = recs
	slices.SortFunc(recs, func(x, y lineRec) int {
		if x.key < y.key {
			return -1
		}
		if x.key > y.key {
			return 1
		}
		return 0
	})
	// Merge overlapping runs in place: the write index never passes the
	// read index.
	m := 0
	for i := 0; i < len(recs); {
		cur := recs[i]
		j := i + 1
		for ; j < len(recs); j++ {
			r := recs[j]
			if r.key&dirFixedMask != cur.key&dirFixedMask || int32(r.lo()) > cur.hi {
				break
			}
			if r.hi > cur.hi {
				cur.hi = r.hi
			}
		}
		recs[m] = cur
		m++
		i = j
	}
	return recs[:m]
}

// WireLength returns the total length of the union of the segments —
// Tree.WireLength without the per-call map and group slices.
func (a *Arena) WireLength(segs []Seg) int {
	total := 0
	for _, r := range a.merge(segs) {
		total += int(r.hi) - r.lo()
	}
	return total
}

// Bends counts the bending points of the segment set: canonical nodes with
// exactly one horizontal and one vertical incident segment. Merged runs are
// disjoint per direction, so at most one run per direction passes through
// any point and a node is a bend iff it is an extremity of both a
// horizontal and a vertical run; the kernel intersects the two sorted
// extremity sets.
func (a *Arena) Bends(segs []Seg) int {
	lines := a.merge(segs)
	hp, vp := a.hpts[:0], a.vpts[:0]
	for _, l := range lines {
		if l.vertical() {
			x := l.fixed()
			vp = append(vp, packPt(x, l.lo()), packPt(x, int(l.hi)))
		} else {
			y := l.fixed()
			hp = append(hp, packPt(l.lo(), y), packPt(int(l.hi), y))
		}
	}
	a.hpts, a.vpts = hp, vp
	slices.Sort(hp)
	slices.Sort(vp)
	bends := 0
	for i, j := 0, 0; i < len(hp) && j < len(vp); {
		switch {
		case hp[i] < vp[j]:
			i++
		case hp[i] > vp[j]:
			j++
		default:
			bends++
			i++
			j++
		}
	}
	return bends
}

// AppendCanon appends the canonical form of segs to dst and returns it:
// merged runs split at every endpoint or crossing touching them, in the
// same order and with the same endpoints as Tree.Canon.
func (a *Arena) AppendCanon(dst []Seg, segs []Seg) []Seg {
	lines := a.merge(segs)
	// Horizontal runs sort first; hb is the first vertical index.
	hb := len(lines)
	for i, l := range lines {
		if l.vertical() {
			hb = i
			break
		}
	}
	horiz, vert := lines[:hb], lines[hb:]
	for i, l := range lines {
		lo := int32(l.lo())
		cuts := append(a.cuts[:0], lo, l.hi)
		fixed := int32(l.fixed())
		// Perpendicular runs cut this one where they cross it (endpoint
		// contact included).
		var perp []lineRec
		if i < hb {
			perp = vert
		} else {
			perp = horiz
		}
		for _, b := range perp {
			bf := int32(b.fixed())
			if bf >= lo && bf <= l.hi && fixed >= int32(b.lo()) && fixed <= b.hi {
				cuts = append(cuts, bf)
			}
		}
		a.cuts = cuts
		slices.Sort(cuts)
		prev := cuts[0]
		for _, c := range cuts[1:] {
			if c == prev {
				continue
			}
			if l.vertical() {
				dst = append(dst, Seg{A: Point{int(fixed), int(prev)}, B: Point{int(fixed), int(c)}})
			} else {
				dst = append(dst, Seg{A: Point{int(prev), int(fixed)}, B: Point{int(c), int(fixed)}})
			}
			prev = c
		}
	}
	return dst
}

// Canon returns the canonical segments of segs in arena-owned scratch. The
// result is valid until the arena's next kernel call or PutArena; callers
// needing to keep it must copy.
func (a *Arena) Canon(segs []Seg) []Seg {
	out := a.AppendCanon(a.canon[:0], segs)
	a.canon = out
	return out
}
