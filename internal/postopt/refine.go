package postopt

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/route"
	"repro/internal/signal"
)

// dists holds every bit's driver-to-pin distances along its routed tree,
// indexed [group][bit][pin]. An unrouted bit's row is nil; an entry is -1
// where the pin is off-tree.
type dists [][][]int

// measure builds the distance table of a routing with one PathLengths call
// per routed bit.
func measure(d *signal.Design, r *route.Routing) dists {
	t := make(dists, len(d.Groups))
	for gi := range d.Groups {
		t[gi] = make([][]int, len(d.Groups[gi].Bits))
		for bi := range t[gi] {
			t.remeasure(d, r, gi, bi)
		}
	}
	return t
}

// remeasure recomputes one bit's row after its tree changed.
func (t dists) remeasure(d *signal.Design, r *route.Routing, gi, bi int) {
	t[gi][bi] = nil
	if br := &r.Bits[gi][bi]; br.Routed {
		bit := &d.Groups[gi].Bits[bi]
		t[gi][bi] = br.Tree.PathLengths(bit.DriverLoc(), bit.PinLocs())
	}
}

// groupMax returns the maximum source-to-sink distance over all routed bits
// and sinks of the group — the base of the paper's 50 % threshold rule.
func (t dists) groupMax(gi int, g *signal.Group) int {
	maxDst := 0
	for bi, row := range t[gi] {
		for pin, d := range row {
			if pin != g.Bits[bi].Driver && d > maxDst {
				maxDst = d
			}
		}
	}
	return maxDst
}

// violation identifies one under-distance pin: the group's bit and pin
// index plus the distance it should be brought up to.
type violation struct {
	group, bit, pin int
	current, target int
}

// findViolations detects the source-to-sink deviation violations of a
// routing from its distance table: for every solution object with a pin
// correspondence, each mapped sink class whose distance spread exceeds
// threshold = DistFrac * (group max initial distance) flags its short pins.
// Returned slice is sorted by group, bit and pin.
func findViolations(d *signal.Design, r *route.Routing, dst dists, opt Options) []violation {
	opt = opt.withDefaults()
	var out []violation
	for gi := range d.Groups {
		g := &d.Groups[gi]
		threshold := int(opt.DistFrac * float64(dst.groupMax(gi, g)))
		if threshold <= 0 {
			continue
		}
		for _, so := range r.Objects[gi] {
			if so.PinMap == nil || len(so.BitIdx) < 2 {
				continue
			}
			rep := &g.Bits[so.RepBit]
			repK := -1
			for k, bi := range so.BitIdx {
				if bi == so.RepBit {
					repK = k
				}
			}
			if repK == -1 {
				continue
			}
			for _, repSink := range rep.Sinks() {
				// Gather the distances of the mapped pin class.
				type entry struct {
					bit, pin, dst int
				}
				var cls []entry
				maxDst := -1
				for k, bi := range so.BitIdx {
					pin := so.PinMap[k][mapToObjectPin(so.PinMap[repK], repSink)]
					row := dst[gi][bi]
					if row == nil || row[pin] < 0 {
						continue
					}
					cls = append(cls, entry{bi, pin, row[pin]})
					if row[pin] > maxDst {
						maxDst = row[pin]
					}
				}
				for _, e := range cls {
					if maxDst-e.dst > threshold {
						out = append(out, violation{gi, e.bit, e.pin, e.dst, maxDst - threshold})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.group != b.group {
			return a.group < b.group
		}
		if a.bit != b.bit {
			return a.bit < b.bit
		}
		return a.pin < b.pin
	})
	return out
}

// mapToObjectPin inverts a representative pin map entry: given the map
// from object-representative pins to cluster-representative pins, find the
// object pin whose image is repPin. PinMap rows are permutations, so the
// inverse exists.
func mapToObjectPin(repMap []int, repPin int) int {
	for objPin, p := range repMap {
		if p == repPin {
			return objPin
		}
	}
	return repPin
}

// CountViolatedGroups returns the paper's Vio(dst) metric: the number of
// groups with at least one source-to-sink deviation violation.
func CountViolatedGroups(d *signal.Design, r *route.Routing, opt Options) int {
	return violatedGroups(findViolations(d, r, measure(d, r), opt))
}

// violatedGroups counts the distinct groups of a sorted violation list.
func violatedGroups(vs []violation) int {
	n := 0
	for i, v := range vs {
		if i == 0 || v.group != vs[i-1].group {
			n++
		}
	}
	return n
}

// RefineStats summarizes a refinement pass.
type RefineStats struct {
	// GroupsBefore and GroupsAfter count violated groups before and after.
	GroupsBefore, GroupsAfter int
	// PinsFixed counts violating pins whose detour succeeded.
	PinsFixed int
	// PinsLeft counts violating pins that could not be fixed (capacity or
	// boundary constraints).
	PinsLeft int
	// AddedWL is the total detour wirelength added.
	AddedWL int
}

// Refine runs Algorithm 4: for every violating pin it extracts the RC
// incident to the pin and tries perpendicular U-shaped shifts (Fig. 10) in
// both directions, checking multilayer capacity before committing. The
// routing and usage are updated in place.
func Refine(p *route.Problem, r *route.Routing, u *grid.Usage, opt Options) RefineStats {
	stats, _ := RefineCtx(context.Background(), p, r, u, opt)
	return stats
}

// RefineCtx is Refine honoring the context: cancellation is checked before
// every detour, so the call returns promptly with ctx's error. Detours
// already committed stay in place — each one is individually legal. The
// routing is measured once; a successful detour re-measures only its bit.
func RefineCtx(ctx context.Context, p *route.Problem, r *route.Routing, u *grid.Usage, opt Options) (RefineStats, error) {
	opt = opt.withDefaults()
	var stats RefineStats
	err := obs.Do(ctx, obs.StageRefine, 0, func(ctx context.Context) error {
		dst := measure(p.Design, r)
		vios := findViolations(p.Design, r, dst, opt)
		stats.GroupsBefore = violatedGroups(vios)
		var err error
		for _, v := range vios {
			if err = ctx.Err(); err != nil {
				break
			}
			if fixed, added := detourPin(p.Design, r, u, v); fixed {
				dst.remeasure(p.Design, r, v.group, v.bit)
				stats.PinsFixed++
				stats.AddedWL += added
			} else {
				stats.PinsLeft++
			}
		}
		stats.GroupsAfter = violatedGroups(findViolations(p.Design, r, dst, opt))
		if err != nil {
			return fmt.Errorf("postopt: refine: %w", err)
		}
		return nil
	})
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add(obs.CounterRefinePinsFixed, int64(stats.PinsFixed))
		rec.Add(obs.CounterRefinePinsLeft, int64(stats.PinsLeft))
		rec.Add(obs.CounterRefineAddedWL, int64(stats.AddedWL))
	}
	return stats, err
}

// detourPin lengthens the connection to the violating pin by a U-shaped
// twisting route so that its source-to-sink distance reaches the target.
// Returns whether the detour succeeded and the added wirelength.
func detourPin(d *signal.Design, r *route.Routing, u *grid.Usage, v violation) (bool, int) {
	g := d.Groups[v.group]
	bit := &g.Bits[v.bit]
	br := &r.Bits[v.group][v.bit]
	if !br.Routed {
		return false, 0
	}
	pinLoc := bit.Pins[v.pin].Loc
	conn, rest, ok := leafConnection(br.Tree, bit.PinLocs(), pinLoc)
	if !ok {
		return false, 0
	}
	need := v.target - v.current
	if need <= 0 {
		return false, 0
	}
	k := (need + 1) / 2 // each U adds 2k length

	gr := u.Grid()
	try := func(detour []geom.Seg) bool {
		// The replacement must fit the residual capacity once the old
		// connection is released.
		route.AddTreeUsage(u, geom.NewTree(conn), br.HLayer, br.VLayer, -1)
		newTree := geom.Tree{Segs: append(append([]geom.Seg{}, rest...), detour...)}
		if !treeInBounds(gr, newTree) || !route.TreeFits(u, geom.NewTree(detour...), br.HLayer, br.VLayer) {
			route.AddTreeUsage(u, geom.NewTree(conn), br.HLayer, br.VLayer, 1)
			return false
		}
		if !newTree.Connected(bit.PinLocs()) {
			route.AddTreeUsage(u, geom.NewTree(conn), br.HLayer, br.VLayer, 1)
			return false
		}
		route.AddTreeUsage(u, geom.NewTree(detour...), br.HLayer, br.VLayer, 1)
		br.Tree = newTree
		return true
	}

	n := conn.Norm()
	sp := n.A
	if sp == pinLoc {
		sp = n.B
	}
	if conn.Horizontal() {
		// Vertical shifting (upper and lower, Fig. 10 rotated).
		for _, dy := range []int{k, -k} {
			detour := uShape(sp, pinLoc, geom.Pt(0, dy))
			if try(detour) {
				return true, 2 * k
			}
		}
	} else {
		// Horizontal shifting (left and right, Fig. 10).
		for _, dx := range []int{k, -k} {
			detour := uShape(sp, pinLoc, geom.Pt(dx, 0))
			if try(detour) {
				return true, 2 * k
			}
		}
	}
	return false, 0
}

// uShape returns the three-segment detour replacing the straight
// connection sp -> pin: jog perpendicular by d, run parallel, jog back.
func uShape(sp, pin, d geom.Point) []geom.Seg {
	a := sp.Add(d)
	b := pin.Add(d)
	return []geom.Seg{geom.S(sp, a), geom.S(a, b), geom.S(b, pin)}
}

// leafConnection extracts the canonical RC incident to pin, requiring the
// pin to be a leaf (degree 1) so the detour disturbs no other connection
// (§IV-C keeps the other pins' connections intact). It returns the
// connection, the remaining segments, and ok.
func leafConnection(t geom.Tree, pins []geom.Point, pin geom.Point) (geom.Seg, []geom.Seg, bool) {
	segs := geom.SplitAt(t.Canon().Segs, pins)
	deg := 0
	var conn geom.Seg
	var rest []geom.Seg
	for _, s := range segs {
		if s.A == pin || s.B == pin {
			deg++
			conn = s
		} else {
			rest = append(rest, s)
		}
	}
	if deg != 1 {
		return geom.Seg{}, nil, false
	}
	return conn, rest, true
}

// treeInBounds reports whether every segment endpoint lies on the grid.
func treeInBounds(g *grid.Grid, t geom.Tree) bool {
	for _, s := range t.Segs {
		if !g.InBounds(s.A.X, s.A.Y) || !g.InBounds(s.B.X, s.B.Y) {
			return false
		}
	}
	return true
}
